package volunteer

import (
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/wcg"
)

// Portable kernel snapshots (see the snapshot package doc): a
// self-contained copy of the SoA host plane's mutable state that a
// different pooled run context can adopt. Assignments held by hosts — the
// work buffer, the in-flight task, the late slab's payloads — are
// translated to arena indices at export and resolved against the
// adopter's own server, which has replayed the same allocation order.
// Closure state (the SpawnHint callback) is never exported; the adopter
// re-binds it.

// portablePlaneEvent is a planeEvent with an evLate event's late slot
// resolved to the assignment's arena index and reported seconds.
type portablePlaneEvent struct {
	at       sim.Time
	seq      uint64
	a        int32
	reported float64
	host     int32
	kind     uint8
}

// portableShard is one shard's calendar: the future windows' events (in
// no particular order: the adopter files each by its time and the barrier
// orders every window), the armed window's unconsumed events in merge
// order, and the refill queue.
type portableShard struct {
	future []portablePlaneEvent
	cur    []portablePlaneEvent
	refill []int32
}

// PortableKernel is a self-contained copy of a ShardKernel at an event
// boundary. Safe to publish across goroutines; read-only once built.
type PortableKernel struct {
	flags       []uint8
	speedDown   []float64
	src         []rng.Source
	dec         []decision
	errorProb   []float64
	abandonProb []float64
	phase       []float64
	onlineSpan  []float64
	joinedAt    []sim.Time
	hardware    []float64
	done        []int32
	cpuSpent    []float64
	cur         []int32
	curOutcome  []wcg.Outcome
	curReported []float64
	cacheLen    []int32
	cache       []int32

	active, firstActive int

	pool     []spawnSlot
	poolHead int
	rsrc     rng.Source

	shards int
	window float64

	cals    []portableShard
	win     int
	winEnd  sim.Time
	armed   bool
	overlay []portablePlaneEvent

	livePlane int
}

// Bytes estimates the portable kernel's memory footprint for the
// snapshot_bytes accounting.
func (p *PortableKernel) Bytes() int {
	n := snapshot.Size(p.flags) + snapshot.Size(p.speedDown) +
		snapshot.Size(p.src) + snapshot.Size(p.dec) +
		snapshot.Size(p.errorProb) + snapshot.Size(p.abandonProb) +
		snapshot.Size(p.phase) + snapshot.Size(p.onlineSpan) +
		snapshot.Size(p.joinedAt) + snapshot.Size(p.hardware) +
		snapshot.Size(p.done) + snapshot.Size(p.cpuSpent) +
		snapshot.Size(p.cur) + snapshot.Size(p.curOutcome) +
		snapshot.Size(p.curReported) + snapshot.Size(p.cacheLen) +
		snapshot.Size(p.cache) + snapshot.Size(p.pool) +
		snapshot.Size(p.overlay)
	for sh := range p.cals {
		c := &p.cals[sh]
		n += snapshot.Size(c.refill) + snapshot.Size(c.cur) + snapshot.Size(c.future)
	}
	return n
}

// exportEvent translates one plane event into portable form, resolving
// an evLate event's slot to its payload.
func (k *ShardKernel) exportEvent(ev planeEvent) portablePlaneEvent {
	pe := portablePlaneEvent{at: ev.at, seq: ev.seq, a: wcg.NilIndex, host: ev.host, kind: ev.kind()}
	if pe.kind == evLate {
		r := &k.lates[ev.lateSlot()]
		pe.a, pe.reported = wcg.AssignmentIndex(r.a), r.reported
	}
	return pe
}

// adoptEvent resolves one portable event against the adopter's server,
// giving an evLate event a fresh late slot.
func (k *ShardKernel) adoptEvent(pe portablePlaneEvent, asAt func(int32) *wcg.Assignment) planeEvent {
	ev := planeEvent{at: pe.at, seq: pe.seq, host: pe.host, aux: int32(pe.kind)}
	if pe.kind == evLate {
		ev.aux = k.allocLate(asAt(pe.a), pe.reported)
	}
	return ev
}

// exportEvents translates a run of events into owned portable form.
func (k *ShardKernel) exportEvents(evs []planeEvent) []portablePlaneEvent {
	if len(evs) == 0 {
		return nil
	}
	out := make([]portablePlaneEvent, len(evs))
	for i, ev := range evs {
		out[i] = k.exportEvent(ev)
	}
	return out
}

// PendingLateReturns counts the late returns the snapshot's calendars
// hold, so identity tests can check that a fixture carries some across
// the portability boundary.
func (p *PortableKernel) PendingLateReturns() int {
	n := 0
	count := func(evs []portablePlaneEvent) {
		for _, pe := range evs {
			if pe.kind == evLate {
				n++
			}
		}
	}
	count(p.overlay)
	for sh := range p.cals {
		count(p.cals[sh].cur)
		count(p.cals[sh].future)
	}
	return n
}

// ExportPortable deep-copies the kernel's mutable state into a portable
// snapshot.
func (k *ShardKernel) ExportPortable() *PortableKernel {
	p := &PortableKernel{
		flags:       snapshot.Clone(k.flags),
		speedDown:   snapshot.Clone(k.speedDown),
		src:         snapshot.Clone(k.src),
		dec:         snapshot.Clone(k.dec),
		errorProb:   snapshot.Clone(k.errorProb),
		abandonProb: snapshot.Clone(k.abandonProb),
		phase:       snapshot.Clone(k.phase),
		onlineSpan:  snapshot.Clone(k.onlineSpan),
		joinedAt:    snapshot.Clone(k.joinedAt),
		hardware:    snapshot.Clone(k.hardware),
		done:        snapshot.Clone(k.done),
		cpuSpent:    snapshot.Clone(k.cpuSpent),
		cacheLen:    snapshot.Clone(k.cacheLen),

		active:      k.active,
		firstActive: k.firstActive,

		pool:     snapshot.Clone(k.pool),
		poolHead: k.poolHead,
		rsrc:     *k.r,

		shards: k.shards,
		window: k.window,

		win:     k.win,
		winEnd:  k.winEnd,
		armed:   k.armed,
		overlay: k.exportEvents(k.overlay),

		livePlane: k.livePlane,
	}
	p.cur = make([]int32, len(k.task))
	p.curOutcome = make([]wcg.Outcome, len(k.task))
	p.curReported = make([]float64, len(k.task))
	for i, t := range k.task {
		p.cur[i], p.curOutcome[i], p.curReported[i] = wcg.AssignmentIndex(t.a), t.outcome, t.reported
	}
	p.cache = make([]int32, len(k.cache))
	for i, a := range k.cache {
		p.cache[i] = wcg.AssignmentIndex(a)
	}
	p.cals = make([]portableShard, k.shards)
	for sh := range k.cals {
		c, pc := &k.cals[sh], &p.cals[sh]
		pc.refill = snapshot.Clone(c.refill)
		pc.cur = k.exportEvents(c.cur[c.cursor:])
		n := 0
		for _, head := range c.wins {
			for ch := head; ch != nil; ch = ch.next {
				n += ch.n
			}
		}
		if n == 0 {
			continue
		}
		pc.future = make([]portablePlaneEvent, 0, n)
		for _, head := range c.wins {
			for ch := head; ch != nil; ch = ch.next {
				for _, ev := range ch.ev[:ch.n] {
					pc.future = append(pc.future, k.exportEvent(ev))
				}
			}
		}
	}
	return p
}

// AdoptPortable installs a portable kernel snapshot into this kernel. The
// kernel must have been Reset under the same configuration, shard count
// and window width the source ran; every assignment index is resolved
// through asAt against the adopter's server.
func (k *ShardKernel) AdoptPortable(p *PortableKernel, asAt func(int32) *wcg.Assignment) {
	if k.shards != p.shards || k.window != p.window {
		panic("volunteer: adopting kernel has a different shard layout — config mismatch")
	}
	k.flags = append(k.flags[:0], p.flags...)
	k.speedDown = append(k.speedDown[:0], p.speedDown...)
	k.src = append(k.src[:0], p.src...)
	k.dec = append(k.dec[:0], p.dec...)
	k.errorProb = append(k.errorProb[:0], p.errorProb...)
	k.abandonProb = append(k.abandonProb[:0], p.abandonProb...)
	k.phase = append(k.phase[:0], p.phase...)
	k.onlineSpan = append(k.onlineSpan[:0], p.onlineSpan...)
	k.joinedAt = append(k.joinedAt[:0], p.joinedAt...)
	k.hardware = append(k.hardware[:0], p.hardware...)
	k.done = append(k.done[:0], p.done...)
	k.cpuSpent = append(k.cpuSpent[:0], p.cpuSpent...)
	k.task = k.task[:0]
	for i, ai := range p.cur {
		k.task = append(k.task, inflight{a: asAt(ai), reported: p.curReported[i], outcome: p.curOutcome[i]})
	}
	k.cacheLen = append(k.cacheLen[:0], p.cacheLen...)
	k.cache = k.cache[:0]
	for _, ai := range p.cache {
		k.cache = append(k.cache, asAt(ai))
	}

	k.active, k.firstActive = p.active, p.firstActive

	k.pool = append(k.pool[:0], p.pool...)
	k.poolHead = p.poolHead
	*k.r = p.rsrc

	k.clearLates()
	for sh := range k.cals {
		c, pc := &k.cals[sh], &p.cals[sh]
		c.reset()
		for _, pe := range pc.future {
			c.push(k.windowOf(pe.at), k.adoptEvent(pe, asAt))
		}
		for _, pe := range pc.cur {
			c.cur = append(c.cur, k.adoptEvent(pe, asAt))
		}
		c.refill = append(c.refill, pc.refill...)
	}
	k.win, k.winEnd, k.armed = p.win, p.winEnd, p.armed
	k.overlay = k.overlay[:0]
	for _, pe := range p.overlay {
		k.overlay = append(k.overlay, k.adoptEvent(pe, asAt))
	}
	k.livePlane, k.peekSrc = p.livePlane, noneSrc
}
