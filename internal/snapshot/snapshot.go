// Package snapshot provides the building blocks for portable in-memory
// snapshots of a full run context: capture the mutable state of every
// subsystem at an event boundary as a self-contained value, then rebuild
// the context from it — on the same pooled run context or on any other —
// once per what-if suffix. A prefix shared by many sweep cells is paid
// for once.
//
// # Contract
//
// There is one snapshot contract. A snapshot (project.Runner.Materialize
// or Snapshot, either of which also makes it the Runner's current one) is
// a read-only value; adopting it (project.Runner.AdoptSnapshot, and
// Restore and Fork, which adopt the current snapshot) rebuilds the run
// context from it. The state splits three ways:
//
//   - Copies: mutable POD state — SoA columns, queues, tables, counters,
//     rng sources, histogram bins — is deep-copied (Clone) into buffers
//     the snapshot owns. Nothing aliases the source context, so the
//     source keeps running (on to the next divergence group) while any
//     number of adopters read the snapshot concurrently, and adopting
//     never writes to it.
//   - Translates: intra-run pointers (*WUState, *Assignment, hosts) are
//     rewritten as arena/slice indices at capture and resolved against
//     the adopter's own arenas — which, having replayed the same
//     deterministic allocation sequence, carve the same objects in the
//     same order (slab.Arena.At).
//   - Re-binds: everything with a closure environment is never copied at
//     all. The adopter first rebuilds immutable structure with the same
//     Reset/prepare/bind machinery a fresh run uses (policy method
//     values, completion hooks, batch plans, fault windows), then revives
//     the schedule from portable descriptors: every scheduled event
//     carries a sim.Call tag naming its kind and small arguments, and
//     the adopting subsystems rebuild equivalent closures bound to their
//     own objects (sim.Engine.AdoptEvent, dormant tickers). An untagged
//     or observer event makes sim.Engine.ExportEvents fail — portability
//     is verified, not assumed.
//
// After adoption the target context is observably byte-identical to the
// source at the capture point: same clock, same (time, seq) event order,
// same rng streams, same counters. A forked suffix produces the same
// report bytes as the straight run it branches from, which the project
// and experiment identity tests pin against the golden hashes.
//
// Snapshots are in-memory only and are never persisted; checkpoint files
// continue to record finished cells, not mid-run state.
package snapshot

import "unsafe"

// Clone returns a freshly allocated copy of s, so the result never
// aliases the live structure it was copied from (nil for an empty s).
func Clone[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// Size returns the in-memory size of s's elements in bytes, for the
// snapshot_bytes accounting of a materialized snapshot.
func Size[T any](s []T) int {
	var z T
	return len(s) * int(unsafe.Sizeof(z))
}
