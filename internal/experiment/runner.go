package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/project"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Metrics is the per-run outcome summary the sweep aggregates: the paper's
// headline quantities extracted from a campaign report.
type Metrics struct {
	Completed      bool    `json:"completed"`
	MakespanWeeks  float64 `json:"makespan_weeks"`
	Redundancy     float64 `json:"redundancy"`      // copies sent per distinct workunit
	UsefulFraction float64 `json:"useful_fraction"` // distinct completions per received result
	AvgVFTPWhole   float64 `json:"avg_vftp_whole"`
	AvgVFTPFull    float64 `json:"avg_vftp_full"`
	TotalFactor    float64 `json:"total_factor"` // end-to-end CPU inflation
	CPUSeconds     float64 `json:"cpu_seconds"`
	PointsTotal    float64 `json:"points_total"` // §8 credit accounting
	DistinctWUs    int64   `json:"distinct_wus"`

	// Fault-plane metrics, filled from Report.Faults. All zero — and
	// omitted from the JSON rendering — on fault-free runs, so pre-fault
	// checkpoint lines still match byte for byte.
	DowntimeHours   float64 `json:"downtime_hours,omitempty"`
	LostUploads     int64   `json:"lost_uploads,omitempty"`
	DroppedResults  int64   `json:"dropped_results,omitempty"`
	ChurnedHosts    int64   `json:"churned_hosts,omitempty"`
	MeanRecoverySec float64 `json:"mean_recovery_seconds,omitempty"`
}

// ExtractMetrics reduces a campaign report to sweep metrics.
func ExtractMetrics(rep *project.Report) Metrics {
	m := Metrics{
		Completed:      rep.Completed,
		MakespanWeeks:  rep.WeeksElapsed,
		Redundancy:     rep.ServerStats.RedundancyFactor(),
		UsefulFraction: rep.ServerStats.UsefulFraction(),
		AvgVFTPWhole:   rep.AvgVFTPWhole,
		AvgVFTPFull:    rep.AvgVFTPFullPower,
		TotalFactor:    rep.TotalFactor(),
		CPUSeconds:     rep.ServerStats.CPUSeconds,
		PointsTotal:    rep.PointsTotal,
		DistinctWUs:    rep.DistinctWUs,
	}
	if f := rep.Faults; f != nil {
		m.DowntimeHours = f.DowntimeSeconds / 3600
		m.LostUploads = f.LostUploads
		m.DroppedResults = f.DroppedResults
		m.ChurnedHosts = f.Departures
		m.MeanRecoverySec = f.MeanRecoverySeconds
	}
	return m
}

// RunResult is one completed (scenario, replication) cell of a sweep. Seed,
// Scale and HHours record the sweep parameters the cell ran under so a
// checkpoint from a differently-parameterized sweep is never reused.
type RunResult struct {
	Scenario string  `json:"scenario"`
	Rep      int     `json:"rep"`
	Seed     uint64  `json:"seed"`
	Scale    float64 `json:"scale"`
	HHours   float64 `json:"h_hours"`
	Metrics  Metrics `json:"metrics"`

	// Failed marks a cell whose simulation panicked twice (see Run's
	// per-cell isolation); Error carries the second panic message. Failed
	// cells are never checkpointed, so a resumed sweep retries them.
	Failed bool   `json:"failed,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Key identifies a sweep cell for checkpoint resume.
type Key struct {
	Scenario string
	Rep      int
}

// Progress is delivered to the Options.Progress callback after every cell,
// from the goroutine that finished it.
type Progress struct {
	Done    int // cells finished so far (resumed ones included)
	Total   int // cells in the sweep
	Resumed bool
	Result  RunResult

	// Live telemetry (wall clock, not sim time).
	WallSeconds float64 // this cell's simulation wall time (0 if resumed)
	CellsPerSec float64 // finished cells per wall second so far
	ETASeconds  float64 // projected seconds to sweep completion
}

// Options parameterizes a sweep.
type Options struct {
	// Base is the already-scaled campaign configuration each scenario
	// mutates a copy of. Its DS and M are shared read-only across workers.
	Base project.Config

	Scenarios []Scenario
	Reps      int // replications per scenario (≥ 1)

	// Workers bounds the goroutine pool; 0 means GOMAXPROCS.
	Workers int

	// Shards sets every cell's host-kernel shard count (0 keeps the base
	// config's, whose default is one shard). The shard count never changes
	// simulation results — runs are byte-identical at every K — so it is
	// not part of the checkpoint key and checkpointed cells from a
	// differently-sharded sweep stay valid.
	Shards int

	// BaseSeed is mixed with the scenario and replication indexes to derive
	// each run's seed; 0 falls back to Base.Seed.
	BaseSeed uint64

	// Checkpoint, when non-nil, is consulted before each cell (completed
	// cells are skipped) and receives every freshly completed cell.
	Checkpoint *Checkpoint

	// Progress, when non-nil, is called after every cell. Calls are
	// serialized by the runner's internal lock.
	Progress func(Progress)

	// Fork enables prefix-shared execution: scenarios carrying a DivergesAt
	// hint are grouped per replication, the shared prefix of their common
	// trajectory runs once, and each cell forks from a portable snapshot
	// taken at its divergence time (the project.Runner fork path: every
	// fork adopts the snapshot). Results and aggregates are byte-identical
	// to an unforked sweep — grouped scenarios share one derived
	// trajectory seed per replication in both modes — only wall clock and
	// the Sweep.Prefix* stats change. Grouped cells run unprobed:
	// MetricsSink/TraceSink samples are skipped for them in fork mode.
	Fork bool

	// ForkWorkers bounds the per-group fan-out in fork mode: the walker
	// that advances a replication's shared prefix materializes each
	// divergence group's snapshot once, splits the group's pending cells
	// into up to ForkWorkers chunks, forks the first chunk itself and
	// hands the rest to pool workers, which adopt the same snapshot into
	// their own run contexts. 0 or 1 keeps every chunk on the walker.
	// Results and aggregates are byte-identical at every value, so this is
	// purely a wall-clock choice; values above Workers are capped to it.
	ForkWorkers int

	// MetricsSink / TraceSink, when non-nil, attach a pooled obs probe to
	// every cell: each worker owns a registry and trace (re-tagged with
	// scenario/rep per cell) and exports to these shared, mutex-guarded
	// sinks. Probes are run-neutral, so instrumented cells produce the
	// same Metrics as bare ones.
	MetricsSink *obs.Sink
	TraceSink   *obs.Sink
	// SampleEvery is the metrics sampling cadence in sim seconds
	// (0 = obs.DefaultSampleEvery).
	SampleEvery float64
}

// Sweep is a completed sweep: every cell result in deterministic
// (scenario, replication) order plus the per-scenario aggregates.
type Sweep struct {
	Results    []RunResult `json:"results"`
	Aggregates []Aggregate `json:"aggregates"`
	Resumed    int         `json:"resumed"` // cells satisfied from the checkpoint

	// Failed holds the cells whose simulations panicked twice; they are
	// excluded from Results and Aggregates. Run also returns an error when
	// any cell lands here, so unnoticed partial sweeps cannot happen.
	Failed []RunResult `json:"failed,omitempty"`

	// Prefix-sharing statistics, filled only in fork mode. Excluded from
	// the JSON rendering so forked and unforked sweep files diff clean.
	PrefixGroups  int     `json:"-"` // snapshots taken across all prefix trees
	PrefixHits    int     `json:"-"` // cells satisfied by forking a snapshot
	SavedSimWeeks float64 `json:"-"` // sim-weeks not re-simulated thanks to sharing

	// Fallbacks lists fork work that panicked and was rerun standalone;
	// results are unchanged by it. Excluded from the JSON rendering like
	// the prefix stats.
	Fallbacks []Fallback `json:"-"`

	// Parallel fan-out statistics, filled only when fork mode runs with
	// ForkWorkers > 1 and at least one group actually fanned out. Excluded
	// from the JSON rendering like the prefix stats, so forked,
	// parallel-forked and unforked sweep files diff clean.
	SnapshotBytes     int     `json:"-"` // bytes of fanned-out groups' snapshots, summed
	SnapshotCaptureNS int64   `json:"-"` // wall time spent materializing those snapshots
	SnapshotAdoptNS   int64   `json:"-"` // wall time pool workers spent adopting snapshots
	AdoptedRunners    int     `json:"-"` // pooled chunk jobs executed across all groups
	ForksParallel     int     `json:"-"` // cells forked in pooled chunks
	ParallelSpeedup   float64 `json:"-"` // Σ fanned-out tree work / Σ tree wall span
}

// Fallback records fork work that panicked: the cell in progress — for a
// panic while advancing the shared prefix, the first cell of the group
// being reached — and the panic message. That cell and every later one
// the work owed were rerun standalone under the same seed.
type Fallback struct {
	Scenario string
	Rep      int
	Reason   string
}

// DeriveSeed mixes the sweep base seed with a cell's scenario and
// replication indexes into an independent per-run seed. The derivation
// depends only on these three values, so a cell's simulation is identical
// no matter which worker runs it or in which order.
func DeriveSeed(base uint64, scenario, rep int) uint64 {
	const goldenGamma = 0x9e3779b97f4a7c15
	const mixGamma = 0xbf58476d1ce4e5b9
	return rng.New(base ^ uint64(scenario+1)*goldenGamma ^ uint64(rep+1)*mixGamma).Uint64()
}

// Run executes the sweep: Scenarios × Reps campaign simulations fanned out
// over a bounded worker pool. Each simulation is single-threaded and
// deterministic in its derived seed; only scheduling is concurrent, so the
// returned results and aggregates are independent of Workers. Cancelling
// ctx stops handing out new cells (in-flight simulations finish) and Run
// returns the context error alongside the partial sweep.
func Run(ctx context.Context, opts Options) (*Sweep, error) {
	if opts.Base.DS == nil || opts.Base.M == nil {
		return nil, fmt.Errorf("experiment: Options.Base needs dataset and matrix")
	}
	if len(opts.Scenarios) == 0 {
		return nil, fmt.Errorf("experiment: no scenarios selected")
	}
	if opts.Reps < 1 {
		return nil, fmt.Errorf("experiment: Reps must be ≥ 1, got %d", opts.Reps)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	baseSeed := opts.BaseSeed
	if baseSeed == 0 {
		baseSeed = opts.Base.Seed
	}

	type cell struct {
		scenIdx int
		rep     int
	}
	cells := make([]cell, 0, len(opts.Scenarios)*opts.Reps)
	for si := range opts.Scenarios {
		for r := 0; r < opts.Reps; r++ {
			cells = append(cells, cell{scenIdx: si, rep: r})
		}
	}
	total := len(cells)
	results := make([]RunResult, total)

	// The prefix plan exists whether or not the sweep forks: grouped
	// scenarios (DivergesAt > 0) share one trajectory seed per replication
	// in both modes, so a forked sweep's results are byte-identical to an
	// unforked one and checkpoints transfer between the two.
	plan := planPrefix(opts.Scenarios)
	seedFor := func(scenIdx, rep int) uint64 {
		if plan != nil && opts.Scenarios[scenIdx].DivergesAt > 0 {
			scenIdx = plan.root
		}
		return DeriveSeed(baseSeed, scenIdx, rep)
	}

	// treeStat times one replication's fanned-out prefix tree for the
	// parallel-speedup estimate: cost sums the wall time of the walker's
	// walk and of every pooled chunk; the span runs from the walk's start
	// to its last finisher. Only trees that actually fanned out get an
	// entry.
	type treeStat struct {
		start, end time.Time
		cost       float64
	}
	var (
		mu           sync.Mutex
		done         int
		resumed      int
		prefixGroups int
		prefixHits   int
		savedWeeks   float64
		ctxSkipped   bool
		fallbacks    []Fallback

		snapBytes int
		snapCapNS int64
		adoptNS   int64
		adopted   int
		forksPar  int
		treeStats = make(map[int]*treeStat)
	)
	// treeWork books work begun at since against rep's tree, if it fanned
	// out; the caller holds mu.
	treeWork := func(rep int, since time.Time) {
		if st := treeStats[rep]; st != nil {
			now := time.Now()
			st.cost += now.Sub(since).Seconds()
			if now.After(st.end) {
				st.end = now
			}
		}
	}
	start := time.Now()
	finish := func(i int, res RunResult, fromCkpt bool, wall float64) {
		mu.Lock()
		defer mu.Unlock()
		results[i] = res
		done++
		if fromCkpt {
			resumed++
		}
		if opts.Progress != nil {
			p := Progress{Done: done, Total: total, Resumed: fromCkpt, Result: res, WallSeconds: wall}
			if elapsed := time.Since(start).Seconds(); elapsed > 0 {
				p.CellsPerSec = float64(done) / elapsed
				p.ETASeconds = float64(total-done) / p.CellsPerSec
			}
			opts.Progress(p)
		}
	}

	// A job is one standalone cell (cell ≥ 0), one replication's prefix
	// tree (cell == -1, chunk == nil) — every grouped scenario of that
	// rep, forked off a single shared-prefix trajectory — or one pooled
	// chunk of a divergence group (chunk != nil): a slice of the group's
	// cells forked off the group's snapshot on another worker's runner.
	type forkChunk struct {
		ps     *project.PortableSnapshot
		at     sim.Time
		seed   uint64
		rep    int
		cells  []int
		pooled bool // run by a pool worker rather than the tree's walker
	}
	type job struct {
		cell  int
		rep   int
		chunk *forkChunk
	}
	forkWorkers := opts.ForkWorkers
	if forkWorkers > workers {
		forkWorkers = workers
	}
	var jobList []job
	forking := opts.Fork && plan != nil
	if forking {
		// Tree jobs first: they are the largest units of work, so handing
		// them out before the standalone cells balances the worker pool.
		for r := 0; r < opts.Reps; r++ {
			jobList = append(jobList, job{cell: -1, rep: r})
		}
		inTree := make([]bool, len(opts.Scenarios))
		for _, si := range plan.cells() {
			inTree[si] = true
		}
		for i, c := range cells {
			if !inTree[c.scenIdx] {
				jobList = append(jobList, job{cell: i})
			}
		}
	} else {
		for i := range cells {
			jobList = append(jobList, job{cell: i})
		}
	}

	// The job queue is dynamic: tree jobs enqueue pooled chunks as their
	// groups fan out. The channel is buffered for the worst-case job count
	// so enqueuing from a worker never blocks, and a WaitGroup-driven
	// closer ends the range loops once every job — late-enqueued chunks
	// included — has drained.
	capN := len(jobList)
	if forking && forkWorkers > 1 {
		capN += opts.Reps * len(plan.groups) * forkWorkers
	}
	jobs := make(chan job, capN)
	var pending sync.WaitGroup
	enqueue := func(j job) {
		pending.Add(1)
		jobs <- j
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One pooled run context per worker: the first cell builds the
			// slabs, heaps and host arrays, every later cell reuses them.
			// Runner reports are valid until the next Run call, which is
			// fine here: ExtractMetrics copies the scalars out immediately.
			runner := project.NewRunner()
			cp := newCellProbe(opts.MetricsSink, opts.TraceSink, opts.SampleEvery)

			// ckptHit finishes cell i from the checkpoint when its recorded
			// parameters match the current sweep.
			ckptHit := func(i int, sc Scenario, seed uint64) bool {
				if opts.Checkpoint == nil {
					return false
				}
				prev, ok := opts.Checkpoint.Lookup(Key{Scenario: sc.Name, Rep: cells[i].rep})
				if !ok || prev.Seed != seed || prev.Scale != opts.Base.WorkScale ||
					prev.HHours != opts.Base.HHours {
					return false
				}
				finish(i, prev, true, 0)
				return true
			}

			runStandalone := func(i int) {
				c := cells[i]
				sc := opts.Scenarios[c.scenIdx]
				seed := seedFor(c.scenIdx, c.rep)
				if ckptHit(i, sc, seed) {
					return
				}
				cellStart := time.Now()
				rep, panicMsg := runCell(runner, &opts, sc, c.rep, seed, cp.arm(sc.Name, c.rep))
				if rep == nil {
					// The panic may have left the pooled run context mid-run
					// and inconsistent; rebuild it and retry the cell once on
					// fresh arenas.
					runner = project.NewRunner()
					rep, panicMsg = runCell(runner, &opts, sc, c.rep, seed, cp.arm(sc.Name, c.rep))
					if rep == nil {
						runner = project.NewRunner() // don't poison later cells
					}
				}
				wall := time.Since(cellStart).Seconds()
				cp.flush(sc.Name, c.rep)
				res := RunResult{
					Scenario: sc.Name,
					Rep:      c.rep,
					Seed:     seed,
					Scale:    opts.Base.WorkScale,
					HHours:   opts.Base.HHours,
				}
				if rep != nil {
					res.Metrics = ExtractMetrics(rep)
					if opts.Checkpoint != nil {
						opts.Checkpoint.Record(res)
					}
				} else {
					res.Failed = true
					res.Error = panicMsg
				}
				finish(i, res, false, wall)
			}

			// forkGuard runs fork work that owes the cells in owed, in
			// order; body counts the cells it finishes in *done. A panic
			// anywhere in body — advancing the shared prefix, adoption, a
			// scenario mutator, a fork — is kept in Sweep.Fallbacks against
			// the cell in progress, the runner is rebuilt (the panic may
			// have left it mid-run) and the owed cells body did not finish
			// rerun standalone under the same seed, so results are
			// unchanged. It reports whether body completed.
			forkGuard := func(owed []int, done *int, body func()) bool {
				fb := func() (fb *Fallback) {
					defer func() {
						if p := recover(); p != nil {
							c := cells[owed[min(*done, len(owed)-1)]]
							fb = &Fallback{Scenario: opts.Scenarios[c.scenIdx].Name, Rep: c.rep, Reason: fmt.Sprint(p)}
						}
					}()
					body()
					return nil
				}()
				if fb == nil {
					return true
				}
				mu.Lock()
				fallbacks = append(fallbacks, *fb)
				mu.Unlock()
				runner = project.NewRunner()
				for _, ci := range owed[*done:] {
					runStandalone(ci)
				}
				return false
			}

			// runChunk forks a chunk of a divergence group's cells off the
			// group's snapshot on this worker's runner: the walker's own
			// first chunk (where the adoption is a no-op — its runner
			// already stands on the snapshot) and every pooled one alike.
			runChunk := func(ch *forkChunk) {
				chunkStart := time.Now()
				var adoptDur time.Duration
				var forked int
				forkGuard(ch.cells, &forked, func() {
					adoptStart := time.Now()
					runner.AdoptSnapshot(ch.ps)
					adoptDur = time.Since(adoptStart)
					for _, ci := range ch.cells {
						c := cells[ci]
						sc := opts.Scenarios[c.scenIdx]
						cellStart := time.Now()
						rp := runner.Fork(cellConfig(&opts, sc, ch.seed, nil))
						wall := time.Since(cellStart).Seconds()
						res := RunResult{
							Scenario: sc.Name,
							Rep:      c.rep,
							Seed:     ch.seed,
							Scale:    opts.Base.WorkScale,
							HHours:   opts.Base.HHours,
							Metrics:  ExtractMetrics(rp),
						}
						if opts.Checkpoint != nil {
							opts.Checkpoint.Record(res)
						}
						forked++
						finish(ci, res, false, wall)
					}
				})
				mu.Lock()
				prefixHits += forked
				savedWeeks += float64(forked) * float64(ch.at) / float64(sim.Week)
				if ch.pooled {
					adopted++
					adoptNS += adoptDur.Nanoseconds()
					forksPar += forked
					treeWork(ch.rep, chunkStart)
				}
				mu.Unlock()
			}

			// runTree walks one replication's prefix tree. Cells already in
			// the checkpoint are finished as resumed before the walk. At
			// each divergence group the walker advances the shared prefix
			// to the group's time, materializes it once, splits the group's
			// cells into up to ForkWorkers chunks, hands every chunk but the
			// first to the pool and forks the first itself. If advancing
			// the prefix panics, every remaining cell of the tree runs
			// standalone.
			runTree := func(rep int) {
				treeSeed := DeriveSeed(baseSeed, plan.root, rep)
				// owed lists the tree's pending cells in group order;
				// group gi's cells are owed[lo[gi]:lo[gi+1]].
				var owed []int
				var ats []sim.Time
				lo := []int{0}
				for _, g := range plan.groups {
					for _, si := range g.scens {
						ci := si*opts.Reps + rep
						if !ckptHit(ci, opts.Scenarios[si], treeSeed) {
							owed = append(owed, ci)
						}
					}
					if len(owed) > lo[len(lo)-1] {
						ats = append(ats, g.at)
						lo = append(lo, len(owed))
					}
				}
				if len(owed) == 0 {
					return // the whole tree resumed from the checkpoint
				}
				treeStart := time.Now()
				baseCfg := opts.Base
				baseCfg.Seed = treeSeed
				if opts.Shards > 0 {
					baseCfg.Shards = opts.Shards
				}
				baseCfg.Probe = nil // forked cells run unprobed
				var ps *project.PortableSnapshot
				var reached sim.Time
				var capDur time.Duration
				for gi, at := range ats {
					prev := ps
					if !forkGuard(owed[lo[gi]:], new(int), func() {
						if prev == nil {
							runner.Begin(baseCfg)
						} else {
							// Restore, in effect — and still right after a
							// fallback rebuilt the runner.
							runner.AdoptSnapshot(prev)
						}
						runner.RunTo(at)
						capStart := time.Now()
						var err error
						if ps, err = runner.Materialize(); err != nil {
							panic(err)
						}
						capDur = time.Since(capStart)
						mu.Lock()
						prefixGroups++
						mu.Unlock()
					}) {
						break
					}
					reached = at
					group := owed[lo[gi]:lo[gi+1]]
					n := max(1, min(forkWorkers, len(group)))
					per := (len(group) + n - 1) / n
					if per < len(group) {
						mu.Lock()
						snapBytes += ps.Bytes()
						snapCapNS += capDur.Nanoseconds()
						if treeStats[rep] == nil {
							treeStats[rep] = &treeStat{start: treeStart}
						}
						mu.Unlock()
					}
					for from := per; from < len(group); from += per {
						enqueue(job{cell: -1, chunk: &forkChunk{
							ps: ps, at: at, seed: treeSeed, rep: rep,
							cells: group[from:min(from+per, len(group))], pooled: true,
						}})
					}
					runChunk(&forkChunk{ps: ps, at: at, seed: treeSeed, rep: rep, cells: group[:per]})
				}
				// The shared prefix itself was simulated once, to the
				// deepest divergence point reached.
				mu.Lock()
				savedWeeks -= float64(reached) / float64(sim.Week)
				treeWork(rep, treeStart)
				mu.Unlock()
			}

			for j := range jobs {
				if ctx.Err() != nil {
					// Cancelled: drain the queue without running anything
					// more; in-flight jobs on other workers finish.
					mu.Lock()
					ctxSkipped = true
					mu.Unlock()
				} else {
					switch {
					case j.chunk != nil:
						runChunk(j.chunk)
					case j.cell >= 0:
						runStandalone(j.cell)
					default:
						runTree(j.rep)
					}
				}
				pending.Done()
			}
		}()
	}

	// The queue is buffered for every job that can exist (jobList plus the
	// worst-case pooled-chunk fan-out), so enqueue never blocks: workers can
	// publish chunks from inside a job without deadlocking on the channel.
	// Close once all enqueued work — including chunks enqueued later — is
	// done.
	for _, j := range jobList {
		enqueue(j)
	}
	go func() {
		pending.Wait()
		close(jobs)
	}()
	wg.Wait()

	var ctxErr error
	if ctxSkipped {
		ctxErr = ctx.Err()
	}

	// Assemble in deterministic cell order, splitting out never-dispatched
	// cells (cancelled sweeps) and twice-panicked ones.
	finished := make([]RunResult, 0, done)
	var failed []RunResult
	for _, r := range results {
		switch {
		case r.Scenario == "": // never dispatched
		case r.Failed:
			failed = append(failed, r)
		default:
			finished = append(finished, r)
		}
	}
	sw := &Sweep{
		Results: finished, Failed: failed, Resumed: resumed, Fallbacks: fallbacks,
		PrefixGroups: prefixGroups, PrefixHits: prefixHits, SavedSimWeeks: savedWeeks,
		SnapshotBytes: snapBytes, SnapshotCaptureNS: snapCapNS, SnapshotAdoptNS: adoptNS,
		AdoptedRunners: adopted, ForksParallel: forksPar,
	}
	var cost, span float64
	for _, st := range treeStats {
		cost += st.cost
		span += st.end.Sub(st.start).Seconds()
	}
	if span > 0 {
		sw.ParallelSpeedup = cost / span
	}
	sw.Aggregates = Aggregated(orderedNames(opts.Scenarios), finished)
	if ctxErr != nil {
		return sw, ctxErr
	}
	if len(failed) > 0 {
		f := failed[0]
		return sw, fmt.Errorf("experiment: %d of %d cells failed after a retry (first: %s rep %d: %s)",
			len(failed), total, f.Scenario, f.Rep, f.Error)
	}
	return sw, nil
}

// cellConfig builds the campaign configuration for one sweep cell: a copy
// of Base with the derived seed pinned across the scenario mutation, the
// sweep's shard plan, and the cell's probe (nil for forked cells).
func cellConfig(opts *Options, sc Scenario, seed uint64, probe *obs.Probe) project.Config {
	cfg := opts.Base // shallow copy; DS and M stay shared read-only
	cfg.Seed = seed
	sc.Mutate(&cfg)
	cfg.Seed = seed // a mutator must not undo the derived seed
	if opts.Shards > 0 {
		cfg.Shards = opts.Shards // execution plan, not an experiment variable
	}
	cfg.Probe = probe
	return cfg
}

// runCell runs one sweep cell — scenario mutation included — converting a
// panic anywhere in it into a nil report plus the panic message, so one
// poisoned cell cannot take down the worker (and with it the whole sweep).
func runCell(runner *project.Runner, opts *Options, sc Scenario, rep int, seed uint64, probe *obs.Probe) (r *project.Report, panicMsg string) {
	defer func() {
		if p := recover(); p != nil {
			r, panicMsg = nil, fmt.Sprint(p)
		}
	}()
	return runner.Run(cellConfig(opts, sc, seed, probe)), ""
}

func orderedNames(scenarios []Scenario) []string {
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.Name
	}
	return names
}
