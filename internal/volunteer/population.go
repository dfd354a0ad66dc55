package volunteer

import (
	"repro/internal/rng"
	"repro/internal/sim"
)

// Population manages the set of volunteer hosts working for one project and
// tracks a time-varying target size — the mechanism behind the paper's
// project phases (§5.1): a handful of devices during the control period,
// then a ramp-up when the project priority is raised, then a roughly
// constant share of a growing grid.
type Population struct {
	engine *sim.Engine
	server WorkSource // single-project: every host binds this directly
	mux    *Mux       // multi-project: every host gets its own port
	cfg    HostConfig
	r      *rng.Source

	hosts       []*Host
	active      int // hosts not stopped
	nextID      int
	firstActive int // hosts[:firstActive] are all stopped (stop-oldest cursor)

	// Host-struct pool: the previous run's hosts, reinitialized in place as
	// this run spawns. See the package-level Reset contract.
	pool     []*Host
	poolNext int
}

// NewPopulation creates an empty population whose hosts all work for the
// one project behind server (normally a *wcg.Server, bound directly: the
// pre-multiplexer fast path, byte-identical to it).
func NewPopulation(engine *sim.Engine, server WorkSource, cfg HostConfig, r *rng.Source) *Population {
	return &Population{engine: engine, server: server, cfg: cfg, r: r}
}

// NewMuxPopulation creates an empty population on a shared multi-project
// grid: every spawned host draws one extra seed for its own MuxPort, which
// arbitrates the host's work fetches across the mux's attached project
// servers by resource share. The mux must hold its attachments before the
// first SetTarget call.
func NewMuxPopulation(engine *sim.Engine, mux *Mux, cfg HostConfig, r *rng.Source) *Population {
	if mux == nil {
		panic("volunteer: NewMuxPopulation(nil mux)")
	}
	return &Population{engine: engine, mux: mux, cfg: cfg, r: r}
}

// Reset rearms the population for another run on the same (freshly reset)
// engine and server: zero hosts joined, a new host configuration and seed
// stream. The previous run's Host structs become the reuse pool.
func (p *Population) Reset(cfg HostConfig, r *rng.Source) {
	p.cfg = cfg
	p.r = r
	// Swap the slices: last run's hosts are this run's pool, and the old
	// pool's backing array (same capacity ballpark) collects the new list.
	p.hosts, p.pool = p.pool[:0], p.hosts
	p.poolNext = 0
	p.active, p.nextID, p.firstActive = 0, 0, 0
}

// spawn creates (or recycles) one host seeded from the population stream.
// The seed derivation matches what NewHost(..., p.r.Split()) produced
// before pooling existed, so populations are bit-for-bit reproducible. On
// a multiplexed grid one extra draw seeds the host's port; a single-project
// population draws nothing extra, keeping its stream byte-identical to the
// pre-multiplexer code.
func (p *Population) spawn() *Host {
	seed := p.r.Uint64()
	var portSeed uint64
	if p.mux != nil {
		portSeed = p.r.Uint64()
	}
	var h *Host
	if p.poolNext < len(p.pool) {
		h = p.pool[p.poolNext]
		p.pool[p.poolNext] = nil
		p.poolNext++
	} else {
		h = &Host{}
		h.requestFn = h.requestWork
		h.taskDoneFn = h.taskDone
	}
	rng.NewInto(&h.src, seed)
	source := p.server
	if p.mux != nil {
		h.port.init(p.mux, p.nextID, portSeed)
		source = &h.port
	} else {
		h.port.mux = nil // a recycled host may have been multiplexed before
	}
	h.init(p.nextID, p.engine, source, p.cfg)
	p.nextID++
	p.hosts = append(p.hosts, h)
	p.active++
	return h
}

// Active returns the number of hosts currently attached (not stopped).
func (p *Population) Active() int { return p.active }

// TotalJoined returns how many hosts ever joined.
func (p *Population) TotalJoined() int { return p.nextID }

// Hosts returns all hosts ever created (stopped ones included).
func (p *Population) Hosts() []*Host { return p.hosts }

// HostAccounting returns host i's credit inputs (the §8 points accounting):
// hardware factor, join time and reported CPU seconds accumulated.
func (p *Population) HostAccounting(i int) (hardware float64, joinedAt sim.Time, cpuSpent float64) {
	h := p.hosts[i]
	return h.Hardware, h.JoinedAt, h.CPUSpent
}

// SetTarget adjusts the active host count toward n: spawning fresh hosts
// (new devices join the grid continuously) or stopping surplus ones (devices
// reassigned to other projects or retired). Hosts finish their current task
// before leaving.
func (p *Population) SetTarget(n int) {
	if n < 0 {
		n = 0
	}
	for p.active < n {
		p.spawn().Start()
	}
	if p.active > n {
		// Stop the oldest active hosts first (device turnover). The cursor
		// makes the weekly shrink O(stopped) instead of rescanning every
		// host ever joined: hosts never restart, so everything before
		// firstActive stays stopped forever.
		excess := p.active - n
		for excess > 0 && p.firstActive < len(p.hosts) {
			h := p.hosts[p.firstActive]
			if !h.Stopped() {
				h.Stop()
				p.active--
				excess--
			}
			p.firstActive++
		}
	}
}

// MeanSpeedDown returns the average speed-down of all hosts ever joined —
// the population-level counterpart of the paper's measured 3.96.
func (p *Population) MeanSpeedDown() float64 {
	if len(p.hosts) == 0 {
		return 0
	}
	var sum float64
	for _, h := range p.hosts {
		sum += h.SpeedDown
	}
	return sum / float64(len(p.hosts))
}

// GridModel is the analytic model of the whole World Community Grid used
// for Figure 1 (grid-wide VFTP since launch) and for the available-capacity
// curve of Figure 6(a). It is a growth model with calendar modulation, not
// a device-level simulation: the paper's own Figure 1 is derived from the
// web site's aggregate statistics exactly the same way.
type GridModel struct {
	// Launch VFTP and weekly growth of the grid-wide capacity.
	BaseVFTP      float64
	GrowthPerWeek float64
	// WeekendDip is the relative capacity drop on Saturday/Sunday
	// (volunteers' office machines going idle... or off).
	WeekendDip float64
	// HolidayDip is the relative drop during holiday periods.
	HolidayDip float64
	// Noise is the relative day-to-day jitter.
	Noise float64
}

// DefaultGridModel calibrates the grid to the paper's numbers: the grid
// passed ~55,000 virtual full-time processors on average during the HCMD
// campaign (which starts at week 110 of this model, December 2006, two
// years after the November 2004 launch) and reached ~74,825 the week the
// paper was written (late 2007).
func DefaultGridModel() GridModel {
	return GridModel{
		BaseVFTP:      4000,
		GrowthPerWeek: 440,
		WeekendDip:    0.12,
		HolidayDip:    0.25,
		Noise:         0.03,
	}
}

// holiday reports whether day d (0 = Monday, week 0 = launch week in
// mid-November) falls in a modelled holiday trough: Christmas/New Year
// (late December) and the summer slowdown (July-August), the two dips the
// paper points out in Figure 1.
func holiday(day int) bool {
	// Model years as 52-week blocks from launch (launch ≈ mid-November).
	dayOfYear := day % 364
	// Launch + ~40 days ≈ Christmas; a 2-week trough.
	if dayOfYear >= 38 && dayOfYear < 52 {
		return true
	}
	// Summer: ~7.5 months after launch, an 8-week softer trough.
	if dayOfYear >= 228 && dayOfYear < 284 {
		return true
	}
	return false
}

// DailyVFTP returns the modelled grid-wide virtual full-time processors for
// each day in [0, days): the Figure 1 series. Deterministic in seed.
func (g GridModel) DailyVFTP(days int, seed uint64) []float64 {
	r := rng.New(seed)
	var cal sim.Calendar
	out := make([]float64, days)
	for d := 0; d < days; d++ {
		t := float64(d) * sim.Day
		base := g.BaseVFTP + g.GrowthPerWeek*float64(d)/7
		v := base
		if cal.IsWeekend(t) {
			v *= 1 - g.WeekendDip
		}
		if holiday(d) {
			v *= 1 - g.HolidayDip
		}
		v *= 1 + g.Noise*r.NormFloat64()
		if v < 0 {
			v = 0
		}
		out[d] = v
	}
	return out
}

// VFTPAt returns the trend capacity (no calendar modulation) at week w.
func (g GridModel) VFTPAt(week float64) float64 {
	return g.BaseVFTP + g.GrowthPerWeek*week
}
