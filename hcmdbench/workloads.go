package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/project"
	"repro/internal/sim"
)

// The workloads. README.md records why each was chosen and the sizes
// measured when they were.
var workloads = []workload{
	campaignWorkload("campaign", 5, func(b *bench) project.Config {
		// The paper's headline run on the default (legacy) kernel, at a
		// quarter of its size: two full-size campaigns at once thrash
		// the memory system (README.md).
		return b.sys.CampaignConfig(0.25, 0)
	}),
	catalogWorkload(),
}

// megagridConfig has 100× more hosts than work, 1-hour workunits and full
// power from launch, on the sharded kernel at one shard per core. A
// traced campaign run measures it once as a probe (megagridProbe).
func megagridConfig(b *bench) project.Config {
	const scale = 1.0 / 21
	cfg := b.sys.CampaignConfig(scale, 1)
	cfg.HostScale = 100 * scale
	cfg.ControlWeeks, cfg.RampWeeks = 0, 0
	cfg.Shards = b.workers
	cfg.Seed = b.seed
	return cfg
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// perLayerNames lists every per-layer metric in BENCHMARK.json order; a
// traced run reports all of them, 0 where a workload does not reach the
// layer.
var perLayerNames = []string{
	"core.build_s", "project.begin_s", "project.finish_s", "project.self_s",
	"kernel.control_s", "kernel.ramp_s", "kernel.full_s", "kernel.drain_s",
	"kernel.day_s_p50", "kernel.day_s_max", "kernel.events", "kernel.ns_per_event", "kernel.peak_pending",
	"sim.self_s", "wcg.self_s", "volunteer.self_s", "credit.self_s", "stats.self_s",
	"slab.self_s", "faults.self_s", "experiment.self_s", "gc.cpu_s",
	"volunteer.shard_merge_frac",
	"wcg.sent", "wcg.received", "wcg.timed_out", "wcg.refused", "wcg.useful_frac",
	"volunteer.hosts_joined",
	"experiment.busy_frac", "experiment.tail_idle_s", "experiment.cell_s_p90", "experiment.cell_samples",
	"snapshot.capture_s", "snapshot.restore_s", "snapshot.materialize_s", "snapshot.adopt_s", "snapshot.bytes",
	"fork.cells_per_s", "fork.suffix_s", "fork.hit_frac", "fork.saved_sim_weeks", "fork.parallel_cells", "fork.adopted_runners",
	"runtime.alloc_mb", "runtime.allocs", "runtime.gc_cycles",
	"trace.overhead_frac",
}

// perLayerUnits gives each per-layer metric its unit.
var perLayerUnits = func() map[string]string {
	u := map[string]string{
		"runtime.alloc_mb":     "MB",
		"snapshot.bytes":       "bytes",
		"kernel.ns_per_event":  "ns",
		"fork.saved_sim_weeks": "weeks",
		"fork.cells_per_s":     "1/s",
	}
	for _, n := range perLayerNames {
		switch {
		case u[n] != "":
		case strings.HasSuffix(n, "_s") || strings.Contains(n, "_s_"):
			u[n] = "s"
		case strings.HasSuffix(n, "_frac"):
			u[n] = "ratio"
		default:
			u[n] = "count"
		}
	}
	return u
}()

// serverCounts are the wcg and host-plane counts of one or more reports;
// a pure performance change leaves them unchanged.
type serverCounts struct {
	sent, received, timedOut, refused, useful, hosts float64
}

func (c *serverCounts) add(r *project.Report) {
	s := r.ServerStats
	c.sent += float64(s.Sent)
	c.received += float64(s.Received)
	c.timedOut += float64(s.TimedOut)
	c.refused += float64(s.Refused)
	c.useful += float64(s.Useful)
	c.hosts += float64(r.HostsJoined)
}

// set reports the counts divided by n (the number of campaigns they were
// summed over).
func (c *serverCounts) set(b *bench, n float64) {
	b.set("wcg.sent", c.sent/n, "count")
	b.set("wcg.received", c.received/n, "count")
	b.set("wcg.timed_out", c.timedOut/n, "count")
	b.set("wcg.refused", c.refused/n, "count")
	b.set("wcg.useful_frac", c.useful/c.received, "ratio")
	b.set("volunteer.hosts_joined", c.hosts/n, "count")
}

// checkCampaign verifies one campaign's report against the oracle.
func checkCampaign(b *bench, r *project.Report, how string) {
	if !r.Completed {
		b.failOp(1, "%s campaign did not complete", how)
		return
	}
	out, err := renderReport(r)
	if err != nil {
		b.failOp(1, "%s report: %v", how, err)
		return
	}
	b.verify(out, 1, how)
}

// steppedRun drives one campaign through Begin, one RunTo per step (a sim
// week or day) and a final Snapshot+Fork that finishes the run (the
// public API has no other way to finish a stepped run), with a span
// around every call; its report must equal Runner.Run's.
func steppedRun(b *bench, runner *project.Runner, cfg project.Config, opID int, step sim.Time) *project.Report {
	tr := b.tr
	root := tr.open(opID, 0, "campaign", 0)
	defer tr.close(root)
	tr.time(opID, root, "Runner.Begin", 0, func() { runner.Begin(cfg) })
	end := sim.Time(cfg.MaxWeeks) * sim.Week
	for at := step; at <= end; at += step {
		tr.time(opID, root, "Runner.RunTo", float64((at-step)/sim.Week), func() { runner.RunTo(at) })
	}
	tr.time(opID, root, "Runner.Snapshot", float64(end/sim.Week), runner.Snapshot)
	var r *project.Report
	tr.time(opID, root, "Runner.Fork", float64(end/sim.Week), func() { r = runner.Fork(cfg) })
	return r
}

// inOps keeps the spans of timed operations (op ≥ 1), leaving out those
// of probes, which use op 0.
func inOps(ss []span) []span {
	var out []span
	for _, s := range ss {
		if s.Op > 0 {
			out = append(out, s)
		}
	}
	return out
}

// campaignWorkload runs one complete campaign per worker in every
// operation, concurrently, each on a pooled runner of its own: a single
// legacy-kernel campaign uses one core, and with the other idle its wall
// time drifted twice as much on a shared host as with both cores busy
// (README.md). Untraced operations call Runner.Run; traced ones step the
// same campaigns week by week (steppedRun). Per-layer kernel, finish and
// wcg numbers are per campaign. A traced run ends with the megagrid probe.
func campaignWorkload(name string, minOps int, config func(b *bench) project.Config) workload {
	var runners []*project.Runner
	var walls []float64 // every campaign of every timed untraced operation
	var traced struct {
		campaigns float64
		weeks     float64 // of the last traced report
		events    uint64
		pending   int
		counts    serverCounts
	}
	cfgOf := func(b *bench) project.Config {
		cfg := config(b)
		cfg.Seed = b.seed
		return cfg
	}
	return workload{
		name:   name,
		minOps: minOps,
		config: cfgOf,
		op: func(b *bench, opID int, trace bool) (int, float64) {
			cfg := cfgOf(b)
			for len(runners) < b.workers {
				runners = append(runners, project.NewRunner())
			}
			reps := make([]*project.Report, len(runners))
			each := make([]float64, len(runners))
			t0 := time.Now()
			var wg sync.WaitGroup
			for i, r := range runners {
				wg.Add(1)
				go func() {
					defer wg.Done()
					t := time.Now()
					if trace {
						reps[i] = steppedRun(b, r, cfg, opID, sim.Week)
					} else {
						reps[i] = r.Run(cfg)
					}
					each[i] = time.Since(t).Seconds()
				}()
			}
			wg.Wait()
			wall := time.Since(t0).Seconds()
			how := "run"
			if trace {
				how = "stepped"
			}
			for _, r := range reps {
				checkCampaign(b, r, how)
				if trace {
					traced.campaigns++
					traced.weeks, traced.events, traced.pending = r.WeeksElapsed, r.EventsExecuted, r.PeakPending
					traced.counts.add(r)
				}
			}
			if !trace && !b.warm {
				walls = append(walls, each...)
			}
			return len(reps), wall
		},
		campaignS: func(*bench) float64 { return median(walls) },
		layers: func(b *bench) {
			cfg := cfgOf(b)
			n := traced.campaigns
			// Steps are assigned to the §5.1 phase their start falls in;
			// those after the completion week are the straggler drain.
			var control, ramp, full, drain float64
			for _, s := range inOps(b.tr.named("Runner.RunTo")) {
				switch {
				case s.Week >= traced.weeks:
					drain += s.dur()
				case s.Week < cfg.ControlWeeks:
					control += s.dur()
				case s.Week < cfg.ControlWeeks+cfg.RampWeeks:
					ramp += s.dur()
				default:
					full += s.dur()
				}
			}
			b.set("kernel.control_s", control/n, "s")
			b.set("kernel.ramp_s", ramp/n, "s")
			b.set("kernel.full_s", full/n, "s")
			b.set("kernel.drain_s", drain/n, "s")
			finish := sum(durs(inOps(b.tr.named("Runner.Snapshot")))) + sum(durs(inOps(b.tr.named("Runner.Fork"))))
			b.set("project.finish_s", finish/n, "s")
			b.set("kernel.events", float64(traced.events), "count")
			b.set("kernel.peak_pending", float64(traced.pending), "count")
			b.set("kernel.ns_per_event", median(walls)/float64(traced.events)*1e9, "ns")
			traced.counts.set(b, n)
			// No more operations run: free the campaign runners before
			// the probe builds its larger one.
			runners = nil
			runtime.GC()
			if err := megagridProbe(b); err != nil {
				b.failOp(1, "megagrid probe: %v", err)
			}
		},
	}
}

// megagridProbe measures the sharded kernel on megagridConfig. A traced
// campaign run executes it once, after its last operation and
// outside every operation's timing and profile: a Runner.Run on a fresh
// runner (the reference), then the same campaign stepped day by day
// (steppedRun) under a CPU profile of its own, whose report must equal
// the reference. It gives kernel.day_s_p50, kernel.day_s_max and
// volunteer.shard_merge_frac.
//
// megagrid was first a workload of its own. It was dropped from the
// gated set to give the remaining workloads longer runs on a shared
// 2-vCPU host whose speed drifts (README.md).
func megagridProbe(b *bench) error {
	orc, err := newOracle("megagrid", b.seed)
	if err != nil {
		return err
	}
	saved := b.orc
	b.orc = orc
	defer func() { b.orc = saved }()
	cfg := megagridConfig(b)
	runner := project.NewRunner()
	b.attempted += 2
	checkCampaign(b, runner.Run(cfg), "megagrid run")

	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	r := steppedRun(b, runner, cfg, 0, sim.Day)
	pprof.StopCPUProfile()
	checkCampaign(b, r, "megagrid stepped")
	b.profiles = append(b.profiles, buf.Bytes())
	prof := newCPUProfile()
	if err := prof.add(buf.Bytes()); err != nil {
		return err
	}

	var days []float64
	for _, s := range b.tr.named("Runner.RunTo") {
		if s.Op == 0 && s.Week < r.WeeksElapsed {
			days = append(days, s.dur())
		}
	}
	p50, _ := percentile(days, 0.5)
	b.set("kernel.day_s_p50", p50, "s")
	b.set("kernel.day_s_max", maxOf(days), "s")
	frac := 0.0
	if d := prof.shardPrep + prof.shardMerg; d > 0 {
		frac = prof.shardMerg / d
	}
	b.set("volunteer.shard_merge_frac", frac, "ratio")
	return nil
}

// sweepPass collects one experiment.Run call through its Progress
// callback: per-cell wall times and completion instants.
type sweepPass struct {
	start time.Time
	walls []float64
	ends  []float64 // seconds since start
}

// tailIdle is the time from the first completion that leaves a worker
// with no cell to start (completion number cells−workers+1) to the last
// completion.
func (s *sweepPass) tailIdle(workers int) float64 {
	if len(s.ends) == 0 {
		return 0
	}
	k := max(len(s.ends)-workers, 0)
	return s.ends[len(s.ends)-1] - s.ends[k]
}

// runSweep runs one experiment.Run call inside a span, with a span per
// finished cell, and returns the sweep with its Results as JSON.
func runSweep(b *bench, opts experiment.Options, opID, parent int, name string) (*experiment.Sweep, *sweepPass, []byte, error) {
	pass := &sweepPass{start: time.Now()}
	id := b.tr.open(opID, parent, name, 0)
	opts.Progress = func(p experiment.Progress) {
		now := time.Now()
		pass.walls = append(pass.walls, p.WallSeconds)
		pass.ends = append(pass.ends, now.Sub(pass.start).Seconds())
		b.tr.add(opID, id, "cell", now.Add(-time.Duration(p.WallSeconds*float64(time.Second))), now, 0)
	}
	sw, err := experiment.Run(context.Background(), opts)
	b.tr.close(id)
	if err != nil {
		return sw, pass, nil, err
	}
	out, err := json.Marshal(sw.Results)
	return sw, pass, out, err
}

// sweepLayers accumulates the experiment-layer metrics over operations.
type sweepLayers struct {
	cellWalls      []float64 // every cell of every untraced operation
	busy, tailIdle []float64 // per operation
}

func (l *sweepLayers) record(b *bench, p *sweepPass, wall float64, traced bool) {
	if !traced {
		l.cellWalls = append(l.cellWalls, p.walls...)
	}
	l.busy = append(l.busy, sum(p.walls)/(float64(b.workers)*wall))
	l.tailIdle = append(l.tailIdle, p.tailIdle(b.workers))
}

// campaignS is campaign_s for a sweep: the median wall time of its cells,
// each of which is one campaign.
func (l *sweepLayers) campaignS() float64 { return median(l.cellWalls) }

func (l *sweepLayers) set(b *bench) {
	b.set("experiment.busy_frac", median(l.busy), "ratio")
	b.set("experiment.tail_idle_s", median(l.tailIdle), "s")
	p90, beyond := percentile(l.cellWalls, 0.9)
	if beyond < 10 {
		b.note("cell_s_p90 not reported: only %d cells beyond it", beyond)
		p90 = 0
	}
	b.set("experiment.cell_s_p90", p90, "s")
	b.set("experiment.cell_samples", float64(len(l.cellWalls)), "count")
}

// catalogWorkload sweeps all catalog scenarios at the sweep CLI's default
// scale, with enough replications that one pass alone puts more than ten
// cells beyond the p90 cell time.
func catalogWorkload() workload {
	const reps = 4
	var layers sweepLayers
	probe := forkProbe{fams: whatifFamilies()}
	optsOf := func(b *bench) experiment.Options {
		base := b.sys.CampaignConfig(1.0/84, 0)
		base.Seed = b.seed
		return experiment.Options{Base: base, Scenarios: experiment.Catalog(), Reps: reps, Workers: b.workers, BaseSeed: b.seed}
	}
	return workload{
		name:   "catalog-sweep",
		minOps: 5,
		config: func(b *bench) project.Config {
			cfg := optsOf(b).Base // the first cell: baseline, replication 0
			cfg.Seed = experiment.DeriveSeed(b.seed, 0, 0)
			return cfg
		},
		op: func(b *bench, opID int, traced bool) (int, float64) {
			opts := optsOf(b)
			n := len(opts.Scenarios) * reps
			t0 := time.Now()
			_, pass, out, err := runSweep(b, opts, opID, 0, "sweep")
			wall := time.Since(t0).Seconds()
			if err != nil { // failed cells make Run return an error
				b.failOp(n, "sweep: %v", err)
				return n, wall
			}
			b.verify(out, n, "sweep")
			if !b.warm {
				layers.record(b, pass, wall, traced)
			}
			return n, wall
		},
		campaignS: func(*bench) float64 { return layers.campaignS() },
		layers: func(b *bench) {
			layers.set(b)
			if err := probe.run(b); err != nil {
				b.failOp(1, "fork probe: %v", err)
			}
		},
	}
}

// whatif is one prefix-sharing what-if family: a base trajectory and the
// variants that fork from it at a common divergence time.
type whatif struct {
	name  string
	at    sim.Time
	base  func(b *bench) project.Config
	scens []experiment.Scenario
}

const whatifScale = 1.0 / 10

func whatifFamilies() []whatif {
	quorum := whatif{
		name: "quorum-switch",
		at:   14 * sim.Week,
		// Flat share, fleet sized so the campaign completes at week 16,
		// two weeks after the deployed week-14 quorum switch: long
		// prefix, short suffix. The variants move the switch to points
		// inside that suffix.
		base: func(b *bench) project.Config {
			cfg := b.sys.CampaignConfig(whatifScale, 0)
			cfg.ControlWeeks, cfg.RampWeeks = 0, 0
			cfg.HostScale = 1.8 * whatifScale
			return cfg
		},
	}
	for k := 1; k <= 6; k++ {
		wk := 14 + 0.5*float64(k)
		quorum.scens = append(quorum.scens, experiment.Scenario{
			Name:       fmt.Sprintf("switch-w%g", wk),
			DivergesAt: quorum.at,
			Mutate: func(cfg *project.Config) {
				cfg.Server.QuorumSwitchTime = sim.Time(wk * sim.Week)
			},
		})
	}
	ramp := whatif{
		name: "ramp-length",
		at:   9 * sim.Week,
		// The deployed schedule (8 control weeks, 3-week ramp); ramps of
		// other lengths first differ at the week-9 tick: short prefix,
		// long suffix.
		base: func(b *bench) project.Config { return b.sys.CampaignConfig(whatifScale, 0) },
	}
	for _, weeks := range []float64{4, 5, 6, 7, 8, 10} {
		ramp.scens = append(ramp.scens, experiment.Scenario{
			Name:       fmt.Sprintf("ramp-%gw", weeks),
			DivergesAt: ramp.at,
			Mutate:     func(cfg *project.Config) { cfg.RampWeeks = weeks },
		})
	}
	return []whatif{quorum, ramp}
}

// forkProbe measures the snapshot and fork layers on the two what-if
// families. A traced catalog-sweep run executes it once, after its last
// operation and outside every operation's timing and profile: an
// unforked reference pass, a forked pass with the parallel fan-out at one
// fork worker per core (timed: fork.cells_per_s), then a walk of each
// family through the Runner fork calls so that each gets a span.
//
// The families were first a workload of their own, whatif-forked. It was
// dropped from the gated set because its timings spread more than any
// bound allows on a shared 2-vCPU host (README.md).
type forkProbe struct {
	fams []whatif
	walk walker
}

func (p *forkProbe) run(b *bench) error {
	orc, err := newOracle("whatif-probe", b.seed)
	if err != nil {
		return err
	}
	saved := b.orc
	b.orc = orc
	defer func() { b.orc = saved }()
	cells := 0
	for _, f := range p.fams {
		cells += len(f.scens)
	}
	pass := func(fork bool) ([]*experiment.Sweep, float64, error) {
		var sweeps []*experiment.Sweep
		var all [][]experiment.RunResult
		wall := 0.0
		for _, f := range p.fams {
			base := f.base(b)
			base.Seed = b.seed
			opts := experiment.Options{
				Base: base, Scenarios: f.scens, Reps: 1, Workers: b.workers, BaseSeed: b.seed,
				Fork: fork, ForkWorkers: b.workers,
			}
			runtime.GC()
			t0 := time.Now()
			sw, _, _, err := runSweep(b, opts, 0, 0, fmt.Sprintf("what-if %s fork=%v", f.name, fork))
			wall += time.Since(t0).Seconds()
			if err != nil {
				return nil, 0, fmt.Errorf("what-if %s: %w", f.name, err)
			}
			if missed := len(f.scens) - sw.PrefixHits; fork && missed > 0 {
				b.failOp(missed, "what-if %s: %d of %d cells did not fork", f.name, missed, len(f.scens))
			}
			sweeps = append(sweeps, sw)
			all = append(all, sw.Results)
		}
		out, err := json.Marshal(all)
		if err != nil {
			return nil, 0, err
		}
		b.attempted += cells
		b.verify(out, cells, fmt.Sprintf("what-if fork=%v", fork))
		return sweeps, wall, nil
	}
	// The unforked pass comes first: it is the reference the forked one
	// must equal (and, for the pinned seed, must itself match the pin).
	if _, _, err := pass(false); err != nil {
		return err
	}
	sweeps, wall, err := pass(true)
	if err != nil {
		return err
	}
	var hits, savedWeeks, parallel, adopted float64
	for _, sw := range sweeps {
		hits += float64(sw.PrefixHits)
		savedWeeks += sw.SavedSimWeeks
		parallel += float64(sw.ForksParallel)
		adopted += float64(sw.AdoptedRunners)
	}
	b.set("fork.cells_per_s", float64(cells)/wall, "1/s")
	b.set("fork.hit_frac", hits/float64(cells), "ratio")
	b.set("fork.saved_sim_weeks", savedWeeks, "weeks")
	b.set("fork.parallel_cells", parallel, "count")
	b.set("fork.adopted_runners", adopted, "count")
	for i, f := range p.fams {
		p.walk.family(b, f, sweeps[i])
	}
	for _, m := range []struct{ span, metric string }{
		{"Runner.Snapshot", "snapshot.capture_s"},
		{"Runner.Restore", "snapshot.restore_s"},
		{"Runner.Materialize", "snapshot.materialize_s"},
		{"Runner.AdoptSnapshot", "snapshot.adopt_s"},
	} {
		b.set(m.metric, sum(durs(b.tr.named(m.span))), "s")
	}
	b.set("fork.suffix_s", median(durs(b.tr.named("Runner.Fork"))), "s")
	b.set("snapshot.bytes", p.walk.bytes, "bytes")
	return nil
}

// walker replays a family's prefix tree through the Runner calls the
// sweep makes internally, reusing its two runners across families.
type walker struct {
	pub, adopter *project.Runner
	bytes        float64
}

// family walks one family: Begin, RunTo the divergence week, Snapshot and
// Materialize, Fork every cell but the last, Restore, then AdoptSnapshot
// on a second runner and fork the last cell there. Every Runner call gets
// a span; every forked report must match the sweep's result for its cell.
func (w *walker) family(b *bench, f whatif, sw *experiment.Sweep) {
	if w.pub == nil {
		w.pub, w.adopter = project.NewRunner(), project.NewRunner()
	}
	seed := experiment.DeriveSeed(b.seed, 0, 0) // every cell shares the root's trajectory seed
	base := f.base(b)
	base.Seed = seed
	week := float64(f.at / sim.Week)
	root := b.tr.open(0, 0, "walk "+f.name, week)
	defer b.tr.close(root)
	r, a := w.pub, w.adopter
	b.tr.time(0, root, "Runner.Begin", 0, func() { r.Begin(base) })
	b.tr.time(0, root, "Runner.RunTo", 0, func() { r.RunTo(f.at) })
	b.tr.time(0, root, "Runner.Snapshot", week, r.Snapshot)
	var ps *project.PortableSnapshot
	var err error
	b.tr.time(0, root, "Runner.Materialize", week, func() { ps, err = r.Materialize() })
	b.attempted += len(f.scens)
	if err != nil {
		b.failOp(len(f.scens), "%s: materialize: %v", f.name, err)
		return
	}
	w.bytes += float64(ps.Bytes())
	fork := func(run *project.Runner, i int) {
		cfg := base
		f.scens[i].Mutate(&cfg)
		var rep *project.Report
		b.tr.time(0, root, "Runner.Fork", week, func() { rep = run.Fork(cfg) })
		got, _ := json.Marshal(experiment.ExtractMetrics(rep)) // plain numeric structs always marshal
		want, _ := json.Marshal(sw.Results[i].Metrics)
		if string(got) != string(want) {
			b.failOp(1, "%s: walked fork of %s differs from the sweep's cell", f.name, f.scens[i].Name)
		}
	}
	last := len(f.scens) - 1
	for i := 0; i < last; i++ {
		fork(r, i)
	}
	b.tr.time(0, root, "Runner.Restore", week, r.Restore)
	b.tr.time(0, root, "Runner.AdoptSnapshot", week, func() { a.AdoptSnapshot(ps) })
	b.tr.time(0, root, "Runner.Snapshot", week, a.Snapshot)
	fork(a, last)
}

func durs(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.dur()
	}
	return out
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
