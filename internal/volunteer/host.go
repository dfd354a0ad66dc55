// Package volunteer models the volunteer side of World Community Grid: the
// device population, its compute behaviour, and the run-time accounting
// quirks that produce the paper's measured slow-down.
//
// §6 of the paper explains why a workunit that needs t seconds on the
// reference Opteron 2 GHz consumes on average 3.96·t of *reported* run time
// on the grid (5.43·t including redundant copies):
//
//   - the UD agent measures wall-clock time, not process CPU time;
//   - the agent is capped at 60 % CPU by default (the throttle);
//   - the research application runs at the lowest priority, so any other
//     use of the computer displaces it (≲ 50 % of elapsed time in practice);
//   - volunteer devices are on average slower than the reference processor,
//     and the screensaver itself consumes cycles.
//
// A Host carries a SpeedDown factor — the product of those causes — sampled
// from a calibrated distribution whose mean is the paper's 3.96. Hosts also
// abandon work (producing timeouts and late results) and occasionally
// return invalid results, which drives the server's redundancy factor.
//
// # Behavior profiles
//
// By default every host draws the same flat error and abandon
// probabilities. HostConfig.Profiles instead partitions the joining
// population into weighted cohorts (see BehaviorProfile in profile.go):
// per-cohort error rates, saboteur cohorts whose hosts turn permanently
// bad (correlated invalid results — the adversary the middleware's
// adaptive replication defends against), and diurnal cohorts that
// compute only during a daily online window. A host resolves its cohort
// once, at init, from its own random stream; the per-task hot loop reads
// plain fields, and an unprofiled population consumes exactly the
// pre-profile random stream, bit for bit. Profile state is part of host
// init, so pooled hosts (see the Reset contract below) resample it
// exactly as fresh hosts would.
//
// # Host model and host kernels
//
// Host (below) is the reference host model: one struct per device whose
// fetch-compute-report loop schedules its own sim.Engine events. It runs
// the shared multi-project grid (a Population of hosts behind mux ports,
// see below). A single-project campaign instead runs on the SoA
// ShardKernel (kernel.go, plane.go), which mirrors Host draw for draw —
// the same per-host streams, the same decisions in the same order — over
// sharded window calendars, so the two are byte-identical on the same
// single-project run.
//
// # Multi-project work fetch
//
// A host talks to the project side through the WorkSource interface
// (worksource.go). A single-project population binds the *wcg.Server
// directly — byte-identical to the pre-interface code. On a shared
// multi-project grid (NewMuxPopulation) every host instead owns a MuxPort
// over the shared Mux attachment table (mux.go): each fetch goes to the
// attached project the host owes the most time to under BOINC-style
// short-term debt, with per-host seeded tie-breaks, so every project
// receives its configured resource share of each host's time and an idle
// project yields its slice. The port lives inside the Host struct and is
// re-armed in place when a pooled host respawns.
//
// # Reset contract
//
// Population.Reset rearms a population for another run on the same
// (freshly reset) engine and server. The Host structs of the previous run
// are retained in a pool and reinitialized in place as the new run spawns
// hosts — same struct, same bound method values, freshly sampled
// behaviour — so the steady state of a pooled run context allocates no
// per-host memory. Everything observable (active count, join counter,
// per-host state) is reinitialized exactly as a fresh NewPopulation +
// NewHost sequence would produce; *Host pointers obtained before the
// Reset alias the recycled structs and must be dropped.
package volunteer

import (
	"math"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wcg"
)

// Speed-down decomposition constants (§6). Their product is the calibrated
// mean slow-down; the ablation bench switches them off one at a time.
const (
	// UDThrottleFactor is the wall-time inflation of the default 60 % CPU
	// cap of the UD agent: 1/0.6.
	UDThrottleFactor = 1.0 / 0.6
	// PriorityFactor is the inflation from running at the lowest priority
	// on a shared machine (other processes displace the research app).
	PriorityFactor = 1.32
	// HardwareFactor is the inflation from volunteer devices being slower
	// on average than an Opteron 2 GHz (screensaver overhead included).
	HardwareFactor = 1.80
)

// MeanSpeedDown is the calibrated mean reported-time inflation, the paper's
// measured 3.96.
const MeanSpeedDown = UDThrottleFactor * PriorityFactor * HardwareFactor // ≈ 3.96

// AccountingMode selects how the agent measures the run time it reports —
// the middleware difference the paper's conclusion discusses: phase I ran
// on the UD agent only, phase II will run on BOINC only, and "there exists
// differences between the way the two middleware systems account for
// run-time".
type AccountingMode int

const (
	// UDWallClock reports elapsed wall-clock time while the task is
	// loaded (phase I): throttle idle and priority displacement inflate
	// the figure.
	UDWallClock AccountingMode = iota
	// BOINCCPUTime reports actual process CPU time (phase II): only the
	// device's hardware slowness remains in the figure.
	BOINCCPUTime
)

// HostConfig tunes host behaviour.
type HostConfig struct {
	// MeanSpeedDown is the mean of the per-host speed-down distribution.
	MeanSpeedDown float64
	// SpeedDownSigma is the log-normal spread of per-host speed-down.
	SpeedDownSigma float64
	// AbandonProb is the per-task probability that the volunteer kills or
	// shelves the task so long that the server deadline passes.
	AbandonProb float64
	// LateReturnProb is, given abandonment, the probability the result
	// still comes back eventually (long-offline devices reconnecting,
	// §5.1) rather than vanishing.
	LateReturnProb float64
	// ErrorProb is the per-task probability of returning an invalid result.
	ErrorProb float64
	// IdleRetry is how long a host waits before re-asking when the server
	// had no work.
	IdleRetry float64
	// LateDelayMax bounds the extra delay of a late return beyond the
	// deadline.
	LateDelayMax float64
	// Accounting selects the agent's run-time measurement (§8).
	Accounting AccountingMode
	// WorkBuffer is how many assignments the agent caches locally
	// (BOINC's connect-interval behaviour). 0 or 1 = fetch one at a time.
	// Larger buffers smooth over server outages but age tasks toward
	// their deadline while they queue on the device.
	WorkBuffer int
	// HardwareTrendPerWeek is the relative speed gain of newly joining
	// devices per week since the simulation epoch ("there are always new
	// members that join the grid with brand new machines", §5.1).
	HardwareTrendPerWeek float64
	// Profiles partitions the joining population into weighted behavior
	// cohorts (per-cohort error rates, saboteurs, diurnal availability).
	// Empty means every host follows the flat fields above, exactly as
	// before profiles existed.
	Profiles []BehaviorProfile
	// OnSaboteurTurn, if non-nil, is invoked once per saboteur host at the
	// moment it turns permanently bad — the run-trace hook for adversarial
	// onsets. Read-only with respect to the model; excluded from JSON so
	// marshaled configurations are unaffected.
	OnSaboteurTurn func(id int, at sim.Time) `json:"-"`
}

// DefaultHostConfig mirrors the production campaign.
func DefaultHostConfig() HostConfig {
	return HostConfig{
		MeanSpeedDown:  MeanSpeedDown,
		SpeedDownSigma: 0.40,
		AbandonProb:    0.06,
		LateReturnProb: 0.55,
		ErrorProb:      0.015,
		IdleRetry:      6 * sim.Hour,
		LateDelayMax:   10 * sim.Day,
		Accounting:     UDWallClock,
		// ~0.2 %/week ≈ 11 %/year, a conservative mid-2000s desktop
		// refresh trend.
		HardwareTrendPerWeek: 0.002,
	}
}

// Host is one volunteer device attached to the grid.
type Host struct {
	ID        int
	JoinedAt  sim.Time
	SpeedDown float64 // wall-time inflation vs the reference processor
	// Hardware is the part of SpeedDown attributable to the device itself
	// (≥ 1): the BOINC agent's CPU-time accounting reports RefSeconds ×
	// Hardware, and the device's benchmark score is 1/Hardware of the
	// reference score.
	Hardware float64

	cfg    HostConfig
	engine *sim.Engine
	server WorkSource   // single-project: the *wcg.Server itself; multi: &h.port
	retry  RetryAdvisor // server's optional backoff advisor; nil = flat IdleRetry
	port   MuxPort      // by value: a pooled host re-arms it in place, no allocation
	src    rng.Source   // by value: a pooled host reseeds in place, no allocation

	// Effective behavior, resolved at init from the flat config or the
	// host's drawn cohort (see BehaviorProfile).
	Profile     int     // index into cfg.Profiles; -1 without profiles
	errorProb   float64 // per-task invalid-result (or saboteur-turn) probability
	abandonProb float64 // per-task abandon probability
	saboteur    bool    // errors are correlated: the first one turns the host
	turned      bool    // saboteur gone bad: every further result is invalid
	diurnal     bool    // computes only during a daily online window
	phase       float64 // diurnal window start offset within the day
	onlineSpan  float64 // diurnal window length, seconds

	stopped  bool    // told to stop after the current task
	busy     bool    // currently computing
	Done     int     // tasks returned on time
	CPUSpent float64 // reported run time accumulated

	// Work buffer: fetched but not yet started assignments, consumed from
	// cacheHead so the backing array is reused instead of reallocated on
	// every fetch.
	cache     []*wcg.Assignment
	cacheHead int

	// The fetch-compute-report loop schedules through these bound method
	// values and the cur* fields, so the steady state allocates no closure
	// per task (only the rare abandoned-late-return path captures state).
	requestFn   func()
	taskDoneFn  func()
	cur         *wcg.Assignment
	curOutcome  wcg.Outcome
	curReported float64
}

// NewHost creates a host with behaviour sampled from cfg. It does not start
// requesting work until Start is called. The host copies r's state and
// draws from its own embedded stream from then on; the caller must not
// keep drawing from r on the host's behalf. server is usually a
// *wcg.Server bound directly; a multi-project population instead gives
// each host its own mux port (see Population).
func NewHost(id int, engine *sim.Engine, server WorkSource, cfg HostConfig, r *rng.Source) *Host {
	h := &Host{src: *r}
	h.requestFn = h.requestWork
	h.taskDoneFn = h.taskDone
	h.init(id, engine, server, cfg)
	return h
}

// init (re)initializes a host struct whose src stream has already been
// seeded: the construction path shared by NewHost and the population's
// host pool. It samples behaviour exactly as a fresh host would and zeroes
// all run state, so a recycled struct is indistinguishable from a new one.
// The requestFn/taskDoneFn method values are bound once per struct (in
// NewHost or Population spawn) and stay valid across reinitializations —
// they close over the receiver pointer, which does not change.
func (h *Host) init(id int, engine *sim.Engine, server WorkSource, cfg HostConfig) {
	if cfg.MeanSpeedDown <= 0 {
		panic("volunteer: mean speed-down must be positive")
	}
	sigma := cfg.SpeedDownSigma
	// The paper's 3.96 is a throughput-weighted observation (total CPU
	// consumed / results returned, against the packaged mean): hosts with a
	// small speed-down return more results per unit time, so the observed
	// inflation is the population's harmonic mean. LogNormal(mu, sigma) has
	// harmonic mean exp(mu - sigma²/2); solve mu so that equals
	// cfg.MeanSpeedDown.
	mu := math.Log(cfg.MeanSpeedDown) + sigma*sigma/2
	sd := h.src.LogNormal(mu, sigma)
	// Devices joining later are faster (grid turnover, §5.1).
	if cfg.HardwareTrendPerWeek > 0 {
		weeks := engine.Now() / sim.Week
		sd /= 1 + cfg.HardwareTrendPerWeek*weeks
	}
	if sd < 1 {
		sd = 1 // a volunteer device cannot beat its own wall clock
	}
	hw := sd / (UDThrottleFactor * PriorityFactor)
	if hw < 1 {
		hw = 1
	}
	h.ID = id
	h.JoinedAt = engine.Now()
	h.SpeedDown = sd
	h.Hardware = hw
	h.cfg = cfg
	h.engine = engine
	h.server = server
	h.retry, _ = server.(RetryAdvisor)
	// Resolve the effective behavior: the flat config draws nothing extra
	// (bit-for-bit the pre-profile stream); a profiled population draws
	// the cohort (and, for diurnal cohorts, the phase) from the host's
	// own stream.
	h.Profile = -1
	h.errorProb = cfg.ErrorProb
	h.abandonProb = cfg.AbandonProb
	h.saboteur = false
	h.turned = false
	h.diurnal = false
	h.phase = 0
	h.onlineSpan = 0
	if len(cfg.Profiles) > 0 {
		h.Profile = h.pickProfile(cfg.Profiles)
		p := &cfg.Profiles[h.Profile]
		h.errorProb = p.ErrorProb
		if p.AbandonProb >= 0 {
			h.abandonProb = p.AbandonProb
		}
		h.saboteur = p.Saboteur
		if p.Diurnal {
			h.diurnal = true
			h.onlineSpan = p.OnlineHours * sim.Hour
			if h.onlineSpan <= 0 {
				h.onlineSpan = DefaultOnlineHours * sim.Hour
			}
			if h.onlineSpan > sim.Day {
				h.onlineSpan = sim.Day
			}
			h.phase = h.src.Float64() * sim.Day
		}
	}
	h.stopped = false
	h.busy = false
	h.Done = 0
	h.CPUSpent = 0
	clear(h.cache)
	h.cache = h.cache[:0]
	h.cacheHead = 0
	h.cur = nil
	h.curOutcome = 0
	h.curReported = 0
}

// Start begins the fetch-compute-report loop.
func (h *Host) Start() { h.requestWork() }

// Stop tells the host to cease after its current task (device retired or
// reassigned to another project).
func (h *Host) Stop() { h.stopped = true }

// Stopped reports whether the host has been told to stop.
func (h *Host) Stopped() bool { return h.stopped }

// Busy reports whether the host is computing a task right now.
func (h *Host) Busy() bool { return h.busy }

// Port returns the host's work-fetch mux port, or nil when the host is
// bound to a single project server directly.
func (h *Host) Port() *MuxPort {
	if h.port.mux == nil {
		return nil
	}
	return &h.port
}

func (h *Host) requestWork() {
	if h.stopped {
		return
	}
	buffer := h.cfg.WorkBuffer
	if buffer < 1 {
		buffer = 1
	}
	if h.cacheHead > 0 {
		// Compact the unconsumed tail to the front so the buffer stays
		// bounded by WorkBuffer and the backing array is reused.
		n := copy(h.cache, h.cache[h.cacheHead:])
		for i := n; i < len(h.cache); i++ {
			h.cache[i] = nil
		}
		h.cache = h.cache[:n]
		h.cacheHead = 0
	}
	// cacheHead is 0 here: the compaction above reset it.
	for len(h.cache) < buffer {
		a := h.server.RequestWork()
		if a == nil {
			break
		}
		h.cache = append(h.cache, a)
	}
	if len(h.cache) == 0 {
		d := h.cfg.IdleRetry
		if h.retry != nil {
			// The server's advisor (the fault plane) may stretch the wait:
			// exponential backoff during an outage, smear after maintenance.
			d = h.retry.FetchRetryDelay(h.ID, d)
		}
		h.engine.ScheduleAfter(d, h.requestFn)
		return
	}
	if h.busy {
		return // already crunching; the cache refill was all we needed
	}
	a := h.cache[0]
	h.cache[0] = nil
	h.cacheHead = 1
	h.busy = true
	// The task physically occupies the device for wall seconds; what the
	// agent *reports* depends on its accounting mode.
	wall := a.WU.WU.RefSeconds * h.SpeedDown
	reported := wall
	if h.cfg.Accounting == BOINCCPUTime {
		reported = a.WU.WU.RefSeconds * h.Hardware
	}

	if h.src.Bernoulli(h.abandonProb) {
		// The volunteer kills or shelves the task: the deadline passes on
		// the server side. With some probability the device reconnects
		// much later and the (by then redundant) result is still counted.
		if h.src.Bernoulli(h.cfg.LateReturnProb) {
			delay := h.server.DeadlineFor(a) + h.src.Float64()*h.cfg.LateDelayMax
			h.engine.ScheduleAfter(delay, func() {
				h.CPUSpent += reported
				// A turned saboteur's results are invalid however they
				// arrive — the late-return path must not hand a bad host
				// valid results to rebuild validation trust with.
				oc := wcg.OutcomeValid
				if h.turned {
					oc = wcg.OutcomeInvalid
				}
				h.server.CompleteFrom(a, oc, reported, h.ID)
			})
		}
		// Either way this host moves on quickly (it is the task that
		// stalls, not the device).
		h.busy = false
		h.engine.ScheduleAfter(h.cfg.IdleRetry, h.requestFn)
		return
	}

	h.cur = a
	h.curReported = reported
	h.curOutcome = wcg.OutcomeValid
	if h.turned || h.src.Bernoulli(h.errorProb) {
		h.curOutcome = wcg.OutcomeInvalid
		if h.saboteur && !h.turned {
			// Correlated errors: the saboteur has turned, and every
			// result from here on is invalid.
			h.turned = true
			if h.cfg.OnSaboteurTurn != nil {
				h.cfg.OnSaboteurTurn(h.ID, h.engine.Now())
			}
		}
	}
	delay := wall
	if h.diurnal {
		// A day-cycle device only computes inside its online window, so
		// the task's elapsed time stretches across the offline gaps.
		delay = diurnalDelay(h.engine.Now(), wall, h.phase, h.onlineSpan)
	}
	h.engine.ScheduleAfter(delay, h.taskDoneFn)
}

// taskDone reports the finished task and fetches the next one.
func (h *Host) taskDone() {
	a, outcome, reported := h.cur, h.curOutcome, h.curReported
	h.cur = nil
	h.busy = false
	h.Done++
	h.CPUSpent += reported
	h.server.CompleteFrom(a, outcome, reported, h.ID)
	h.requestWork()
}
