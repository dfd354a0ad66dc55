package volunteer

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/wcg"
)

// Portable population and kernel snapshots (see the snapshot package
// doc): self-contained copies of the volunteer plane's mutable state that
// a different pooled run context can adopt. Assignments held by hosts —
// the work buffer, the in-flight task, late-return calendar entries — are
// translated to arena indices at export and resolved against the
// adopter's own server, which has replayed the same allocation order.
// Closure state (the bound requestFn/taskDoneFn method values, the
// SpawnHint callback) is never exported; the adopter re-binds it.

// portableHost is one Host's mutable state with every intra-run pointer
// translated: the in-flight and cached assignments become arena indices,
// and the engine/server/config bindings are dropped entirely (the adopter
// supplies its own).
type portableHost struct {
	id        int
	joinedAt  sim.Time
	speedDown float64
	hardware  float64
	src       rng.Source

	profile     int
	errorProb   float64
	abandonProb float64
	saboteur    bool
	turned      bool
	diurnal     bool
	phase       float64
	onlineSpan  float64

	stopped  bool
	busy     bool
	done     int
	cpuSpent float64

	cache     []int32
	cacheHead int

	cur         int32
	curOutcome  wcg.Outcome
	curReported float64
}

// PortablePopulation is a self-contained copy of a Population (the legacy
// per-Host kernel) at an event boundary. Safe to publish across
// goroutines; read-only once built.
type PortablePopulation struct {
	hosts []portableHost

	active, nextID, firstActive int

	rsrc rng.Source
}

// Bytes estimates the portable population's memory footprint for the
// snapshot_bytes accounting.
func (p *PortablePopulation) Bytes() int {
	n := snapshot.Size(p.hosts)
	for i := range p.hosts {
		n += snapshot.Size(p.hosts[i].cache)
	}
	return n
}

// ExportPortable deep-copies the population's mutable state into a
// portable snapshot. Multi-project (multiplexed) populations are not
// portable — the shared debt slab and per-port state have no translation
// yet — so the export fails for them.
func (p *Population) ExportPortable() (*PortablePopulation, error) {
	if p.mux != nil {
		return nil, fmt.Errorf("volunteer: portable export does not support multiplexed populations")
	}
	ps := &PortablePopulation{
		active:      p.active,
		nextID:      p.nextID,
		firstActive: p.firstActive,
		rsrc:        *p.r,
	}
	ps.hosts = make([]portableHost, len(p.hosts))
	for i, h := range p.hosts {
		ph := &ps.hosts[i]
		ph.id = h.ID
		ph.joinedAt = h.JoinedAt
		ph.speedDown = h.SpeedDown
		ph.hardware = h.Hardware
		ph.src = h.src
		ph.profile = h.Profile
		ph.errorProb = h.errorProb
		ph.abandonProb = h.abandonProb
		ph.saboteur = h.saboteur
		ph.turned = h.turned
		ph.diurnal = h.diurnal
		ph.phase = h.phase
		ph.onlineSpan = h.onlineSpan
		ph.stopped = h.stopped
		ph.busy = h.busy
		ph.done = h.Done
		ph.cpuSpent = h.CPUSpent
		if len(h.cache) > 0 {
			ph.cache = make([]int32, len(h.cache))
			for j, a := range h.cache {
				ph.cache[j] = wcg.AssignmentIndex(a)
			}
		}
		ph.cacheHead = h.cacheHead
		ph.cur = wcg.AssignmentIndex(h.cur)
		ph.curOutcome = h.curOutcome
		ph.curReported = h.curReported
	}
	return ps, nil
}

// AdoptPortable installs a portable population snapshot into this
// population. The population must have been Reset under the same host
// configuration and bound (Rebind) to its own context's work source.
// Host structs are consumed from the reuse pool exactly as spawn would —
// but with state copied from the snapshot instead of sampled — and every
// assignment index is resolved through asAt against the adopter's server.
func (p *Population) AdoptPortable(ps *PortablePopulation, asAt func(int32) *wcg.Assignment) {
	if p.mux != nil {
		panic("volunteer: portable adoption does not support multiplexed populations")
	}
	for i := range ps.hosts {
		ph := &ps.hosts[i]
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
		h.ID = ph.id
		h.JoinedAt = ph.joinedAt
		h.SpeedDown = ph.speedDown
		h.Hardware = ph.hardware
		h.cfg = p.cfg
		h.engine = p.engine
		h.server = p.server
		h.retry, _ = p.server.(RetryAdvisor)
		h.port = MuxPort{}
		h.src = ph.src
		h.Profile = ph.profile
		h.errorProb = ph.errorProb
		h.abandonProb = ph.abandonProb
		h.saboteur = ph.saboteur
		h.turned = ph.turned
		h.diurnal = ph.diurnal
		h.phase = ph.phase
		h.onlineSpan = ph.onlineSpan
		h.stopped = ph.stopped
		h.busy = ph.busy
		h.Done = ph.done
		h.CPUSpent = ph.cpuSpent
		clear(h.cache)
		h.cache = h.cache[:0]
		for _, ai := range ph.cache {
			h.cache = append(h.cache, asAt(ai))
		}
		h.cacheHead = ph.cacheHead
		h.cur = asAt(ph.cur)
		h.curOutcome = ph.curOutcome
		h.curReported = ph.curReported
		p.hosts = append(p.hosts, h)
	}
	p.active = ps.active
	p.nextID = ps.nextID
	p.firstActive = ps.firstActive
	*p.r = ps.rsrc
}

// ResolveCall rebuilds the closure an adopted engine event should run,
// from its portable sim.Call descriptor: the bound fetch/report method
// values of the named host, or a freshly built late-return closure over
// the resolved assignment. Returns nil for calls this population does not
// own.
func (p *Population) ResolveCall(c sim.Call, asAt func(int32) *wcg.Assignment) func() {
	switch c.Kind {
	case sim.CallHostRequest:
		return p.hosts[c.A0].requestFn
	case sim.CallHostTaskDone:
		return p.hosts[c.A0].taskDoneFn
	case sim.CallHostLate:
		return p.hosts[c.A0].lateReturnFn(asAt(c.A1), c.F0)
	}
	return nil
}

// portablePlaneEvent is a planeEvent with its assignment pointer replaced
// by the assignment's arena index.
type portablePlaneEvent struct {
	at       sim.Time
	seq      uint64
	a        int32
	reported float64
	host     int32
	kind     uint8
}

// portableShard is one shard's calendar: the window-bucket table and the
// refill queue. The current-window merge buffer is not stored — it
// aliases the armed window's bucket by construction, and the adopter
// re-establishes that alias against its own bucket copy.
type portableShard struct {
	buckets [][]portablePlaneEvent
	refill  []int32
}

// PortableKernel is a self-contained copy of a ShardKernel (the SoA
// mega-grid kernel) at an event boundary. Safe to publish across
// goroutines; read-only once built.
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

	shardCals []portableShard
	cursor    []int
	win       int
	winEnd    sim.Time
	armed     bool
	prevWin   int
	overlay   []portablePlaneEvent

	livePlane, peekSrc int
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
		snapshot.Size(p.cursor) + snapshot.Size(p.overlay)
	for sh := range p.shardCals {
		n += snapshot.Size(p.shardCals[sh].refill)
		for _, b := range p.shardCals[sh].buckets {
			n += snapshot.Size(b)
		}
	}
	return n
}

// portablePlaneEvents translates one bucket (or the overlay) into owned
// portable form.
func portablePlaneEvents(evs []planeEvent) []portablePlaneEvent {
	if len(evs) == 0 {
		return nil
	}
	out := make([]portablePlaneEvent, len(evs))
	for i, ev := range evs {
		out[i] = portablePlaneEvent{
			at: ev.at, seq: ev.seq, a: wcg.AssignmentIndex(ev.a),
			reported: ev.reported, host: ev.host, kind: ev.kind,
		}
	}
	return out
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
		curOutcome:  snapshot.Clone(k.curOutcome),
		curReported: snapshot.Clone(k.curReported),
		cacheLen:    snapshot.Clone(k.cacheLen),

		active:      k.active,
		firstActive: k.firstActive,

		pool:     snapshot.Clone(k.pool),
		poolHead: k.poolHead,
		rsrc:     *k.r,

		shards: k.shards,
		window: k.window,

		cursor:  snapshot.Clone(k.cursor),
		win:     k.win,
		winEnd:  k.winEnd,
		armed:   k.armed,
		prevWin: k.prevWin,
		overlay: portablePlaneEvents(k.overlay),

		livePlane: k.livePlane,
		peekSrc:   k.peekSrc,
	}
	p.cur = make([]int32, len(k.cur))
	for i, a := range k.cur {
		p.cur[i] = wcg.AssignmentIndex(a)
	}
	p.cache = make([]int32, len(k.cache))
	for i, a := range k.cache {
		p.cache[i] = wcg.AssignmentIndex(a)
	}
	p.shardCals = make([]portableShard, k.shards)
	for sh := 0; sh < k.shards; sh++ {
		sc := &p.shardCals[sh]
		sc.refill = snapshot.Clone(k.refill[sh])
		sc.buckets = make([][]portablePlaneEvent, len(k.buckets[sh]))
		for w, b := range k.buckets[sh] {
			sc.buckets[w] = portablePlaneEvents(b)
		}
	}
	return p
}

// AdoptPortable installs a portable kernel snapshot into this kernel. The
// kernel must have been Reset under the same configuration, shard count
// and window width the source ran; every assignment index is resolved
// through asAt against the adopter's server. The current-window merge
// buffers are re-aliased to the adopter's own copy of the armed window's
// buckets, restoring the alias invariant prepWindow establishes.
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
	k.cur = k.cur[:0]
	for _, ai := range p.cur {
		k.cur = append(k.cur, asAt(ai))
	}
	k.curOutcome = append(k.curOutcome[:0], p.curOutcome...)
	k.curReported = append(k.curReported[:0], p.curReported...)
	k.cacheLen = append(k.cacheLen[:0], p.cacheLen...)
	k.cache = k.cache[:0]
	for _, ai := range p.cache {
		k.cache = append(k.cache, asAt(ai))
	}

	k.active, k.firstActive = p.active, p.firstActive

	k.pool = append(k.pool[:0], p.pool...)
	k.poolHead = p.poolHead
	*k.r = p.rsrc

	for sh := 0; sh < k.shards; sh++ {
		sc := &p.shardCals[sh]
		bs := k.buckets[sh]
		for len(bs) < len(sc.buckets) {
			bs = append(bs, nil)
		}
		bs = bs[:len(sc.buckets)]
		for w, pb := range sc.buckets {
			if len(pb) == 0 {
				if bs[w] != nil {
					clear(bs[w])
					k.freeB[sh] = append(k.freeB[sh], bs[w][:0])
					bs[w] = nil
				}
				continue
			}
			b := bs[w]
			if b == nil {
				if n := len(k.freeB[sh]); n > 0 {
					b = k.freeB[sh][n-1]
					k.freeB[sh] = k.freeB[sh][:n-1]
				}
			}
			b = b[:0]
			for _, pe := range pb {
				b = append(b, planeEvent{
					at: pe.at, seq: pe.seq, a: asAt(pe.a),
					reported: pe.reported, host: pe.host, kind: pe.kind,
				})
			}
			bs[w] = b
		}
		k.buckets[sh] = bs
		k.refill[sh] = append(k.refill[sh][:0], sc.refill...)
	}
	copy(k.cursor, p.cursor)
	k.win, k.winEnd = p.win, p.winEnd
	k.armed, k.prevWin = p.armed, p.prevWin
	k.overlay = k.overlay[:0]
	for _, pe := range p.overlay {
		k.overlay = append(k.overlay, planeEvent{
			at: pe.at, seq: pe.seq, a: asAt(pe.a),
			reported: pe.reported, host: pe.host, kind: pe.kind,
		})
	}
	k.livePlane, k.peekSrc = p.livePlane, p.peekSrc

	// Re-establish prepWindow's alias: the merge buffers point at the armed
	// window's buckets (nil where the window held no events for a shard).
	for sh := 0; sh < k.shards; sh++ {
		if k.armed {
			k.curBuf[sh] = k.bucket(sh, k.win)
		} else {
			k.curBuf[sh] = nil
		}
	}
}
