package project

import (
	"fmt"

	"repro/internal/sim"
)

// This file is the snapshot/fork path: a Runner can run a campaign's
// shared prefix once, capture the full run context at a divergence time
// as a portable snapshot (portable.go), and then finish the run
// repeatedly — once per what-if configuration — each fork rebuilding the
// context from that snapshot. There is one snapshot contract (see the
// snapshot package doc): a fork is an adoption of the Runner's current
// snapshot, and since a snapshot owns its bytes the same value can be
// adopted by any other Runner, on any goroutine.
//
//	r.Begin(base)            // build + arm, nothing executed
//	r.RunTo(T)               // events strictly before T
//	r.Snapshot()             // capture at the boundary; becomes current
//	rep := r.Fork(cellCfg)   // adopt current, swap config, finish → report
//	rep2 := r.Fork(cell2Cfg) // next cell, same prefix
//	r.Restore()              // adopt current under base, to RunTo a later T
//
// Each returned Report is owned by the Runner and valid only until the
// next Fork/Run call, exactly like Runner.Run. Fork requires an unprobed
// run and a fork config that agrees with the prefix config on everything
// resolved at bind time (dataset, seed, scales, order, kernel plan,
// horizon, fault plane); wcg.Server.ApplyConfig documents the middleware
// half of that contract.

// applyConfig swaps the configuration in force at a fork point. Anything
// resolved at construction/bind time must be identical to the prefix
// config — those fields shaped state the snapshot captured — and the
// checks here enforce the ones that are cheap to compare; the middleware
// policy fields are wcg.Server.ApplyConfig's documented contract, which
// the experiment layer's grouping test pins.
func (c *Campaign) applyConfig(cfg Config) {
	if cfg.Probe != nil {
		panic("project: forked runs are unprobed")
	}
	cfg = checkConfig(cfg)
	base := &c.t.cfg
	switch {
	case cfg.DS != base.DS || cfg.M != base.M:
		panic("project: fork cannot change the dataset or cost matrix")
	case cfg.Seed != base.Seed:
		panic("project: fork cannot change the seed")
	case cfg.WorkScale != base.WorkScale || cfg.HostScale != base.HostScale || cfg.HHours != base.HHours:
		panic("project: fork cannot change the work/host scales")
	case cfg.Order != base.Order || cfg.Shards != base.Shards || cfg.MaxWeeks != base.MaxWeeks:
		panic("project: fork cannot change release order, kernel plan or horizon")
	case (cfg.Faults == nil) != (base.Faults == nil),
		cfg.Faults != nil && *cfg.Faults != *base.Faults:
		panic("project: fork cannot change the fault plane")
	}
	c.t.cfg = cfg
	c.t.report.Config = cfg
	c.t.server.ApplyConfig(cfg.Server)
}

// Begin arms a run under cfg — pooled reset (or first build) plus the
// start phase — without executing any events, and drops the current
// snapshot. Begin/RunTo/Snapshot/Fork compose into Run: Begin(cfg);
// RunTo(end) ... is not needed for a plain run, which should keep calling
// Run.
func (r *Runner) Begin(cfg Config) {
	r.arm(cfg)
	r.cur = nil
	r.c.start()
}

// RunTo executes every event with a timestamp strictly before at, in
// exactly the order a full run would, and stops at the boundary without
// advancing the clock to it.
func (r *Runner) RunTo(at sim.Time) {
	r.atCur = false
	r.c.kern.RunBefore(at)
}

// Snapshot captures the run context at the current event boundary as the
// Runner's current snapshot (a later Snapshot, Materialize or
// AdoptSnapshot replaces it). It panics where Materialize would return an
// error; a campaign Runner's context is always portable.
func (r *Runner) Snapshot() {
	if _, err := r.Materialize(); err != nil {
		panic(fmt.Sprintf("project: snapshot: %v", err))
	}
}

// Fork adopts the current snapshot, swaps in cfg and finishes the run,
// returning its report — byte-identical to a straight Run(cfg) when cfg's
// behavior before the snapshot time matches the prefix config's. The
// report is owned by the Runner and valid until the next Fork or Run.
func (r *Runner) Fork(cfg Config) *Report {
	r.Restore()
	r.atCur = false
	r.c.applyConfig(cfg)
	r.c.kern.RunUntil(r.c.t.cfg.MaxWeeks * sim.Week)
	return r.c.finish()
}

// Restore adopts the current snapshot, putting the context back at the
// captured boundary under the prefix's own config, so the shared prefix
// can continue (RunTo a later divergence time) after a group of forks has
// run.
func (r *Runner) Restore() {
	if r.cur == nil {
		panic("project: Restore/Fork without a Snapshot")
	}
	r.AdoptSnapshot(r.cur)
}
