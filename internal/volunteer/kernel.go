// The deterministic sharded time-window kernel: the host kernel of every
// single-project campaign, the execution half of the SoA host plane (see
// plane.go for the layout).
//
// # Shard time-window invariant
//
// Host continuation events (task completions, idle retries, late returns)
// are not stored in the central sim.Engine heap. They live in per-shard
// window calendars: shard = host mod K, window = floor(time / W). The
// window width W is min(IdleRetry, half the target task wall time), so
// almost every continuation lands one or more windows ahead of the window
// that schedules it; the rare event that falls due inside the current
// window goes to a small overlay heap instead, which makes W a pure
// performance knob — correctness holds for any W > 0.
//
// At each window barrier the K shard workers run in parallel, touching
// only their own hosts (disjoint array ranges) and their own buckets:
// they gather the window's bucket into (time, seq) order, and refill the
// consumed per-host decision transcripts (plus, before a weekly tick, the
// spawn slot pool). Between barriers a single goroutine merges the K
// ordered bucket heads, the overlay heap and the engine's own heap in
// global ascending (time, seq) order and executes the model serially.
//
// Each window bucket is a list of fixed-size chunks from a per-shard free
// list, and the barrier scatters the window into a per-shard merge buffer
// by a linear-time distribution sort (see shardCal.gather), so the
// calendar retains about its live events plus one chunk per live window,
// however busy an earlier window was. Events are filed by windowOf, which
// uses the exact window bounds the barrier arms.
//
// Calendar events are pointer-free 24-byte values (time, seq, host and
// an aux word holding the kind), so the barrier moves plain values and
// recycled chunks need no clearing. A late return's payload — its
// assignment and reported seconds — waits in a kernel-wide slab (lates)
// whose slot index rides in the aux word; only the serial merge
// allocates and frees slots. The in-flight task of each host is one
// record (task), read together when the task completes.
//
// # Byte-identity with the per-Host reference
//
// The per-Host model (host.go) schedules every continuation on the engine
// heap, which breaks time ties FIFO by a sequence number assigned at
// scheduling time. The sharded kernel draws its sequence numbers from the
// same engine counter (Engine.TakeSeq) at exactly the moments the per-Host
// loop would have scheduled, and mirrors the engine's live/executed/clock
// accounting through ExternalSchedule/ExternalExecute. Every model draw
// comes from the same per-host stream positions (see the decision
// transcripts in plane.go). Shard count K therefore changes only WHO
// precomputes a value, never the value or the execution order: reports
// are byte-identical for every K, fresh and pooled, and equal to the
// golden hashes the per-Host loop recorded (internal/project pins them).
package volunteer

import (
	"math"
	"slices"
	"sync"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wcg"
)

// planeEvent kinds.
const (
	evFetch uint8 = iota // idle retry: run the fetch loop again
	evDone               // current task completes on time
	evLate               // abandoned task returns after its deadline
)

// kindBits is the width of the kind field in the low bits of
// planeEvent.aux; an evLate event keeps its late slot above it.
const kindBits = 2

// planeEvent is one host continuation in a shard calendar: 24 bytes and
// no pointer, so the barrier moves plain values. aux holds the kind in
// its low kindBits and, for evLate, the index of the late return's
// payload in the kernel's late slab above them.
type planeEvent struct {
	at   sim.Time
	seq  uint64
	host int32
	aux  int32
}

// kind returns the event's kind.
func (ev planeEvent) kind() uint8 { return uint8(ev.aux & (1<<kindBits - 1)) }

// lateSlot returns an evLate event's index into the late slab.
func (ev planeEvent) lateSlot() int32 { return ev.aux >> kindBits }

// lateRec is the payload of one pending late return, kept off the
// calendar in ShardKernel.lates. A free slot links to the next free one.
type lateRec struct {
	a        *wcg.Assignment
	reported float64
	next     int32 // free-list link; meaningful only while the slot is free
}

func planeEventLess(a, b planeEvent) int {
	switch {
	case a.at != b.at:
		if a.at < b.at {
			return -1
		}
		return 1
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

// chunkSize is the event capacity of one calendar chunk.
const chunkSize = 64

// evChunk is one block of a window bucket's events, in insertion order.
type evChunk struct {
	ev   [chunkSize]planeEvent
	n    int
	next *evChunk
}

// shardCal is one shard's calendar: wins[w] holds the shard's events due
// in [w·W, (w+1)·W) as a chunk list (head = the chunk being filled),
// appended unsorted during the merge. The window barrier scatters the
// armed window's chunks into cur in (at, seq) order and returns the
// chunks to the shard's free list.
type shardCal struct {
	wins   []*evChunk
	free   *evChunk
	refill []int32      // hosts whose decision tuple was consumed this window
	cur    []planeEvent // the armed window's events, sorted by (at, seq)
	ends   []int32      // gather's sub-bucket offsets; cap(cur) ≥ len(ends)
	cursor int          // read index into cur
}

// push appends ev to window w's bucket.
func (c *shardCal) push(w int, ev planeEvent) {
	for len(c.wins) <= w {
		c.wins = append(c.wins, nil)
	}
	head := c.wins[w]
	if head == nil || head.n == chunkSize {
		ch := c.free
		if ch != nil {
			c.free = ch.next
		} else {
			ch = &evChunk{}
		}
		ch.next = head
		c.wins[w] = ch
		head = ch
	}
	head.ev[head.n] = ev
	head.n++
}

// insertionMax is the largest sub-bucket gather orders by insertion sort;
// larger ones (events on one tick) go to pdqsort.
const insertionMax = 16

// gather moves window w's events, all due in [lo, hi), into cur in
// (at, seq) order and recycles their chunks. It is a distribution sort:
// every event is counted into one of about n sub-buckets by a monotone
// function of its time, scattered to its sub-bucket's offset in cur, and
// each sub-bucket is then sorted on its own. Equal times share a
// sub-bucket and sub-buckets come out in time order, so the result is the
// (at, seq) order whatever the chunk order — seqs are unique — and the
// cost is linear unless many events share a time.
func (c *shardCal) gather(w int, lo, hi sim.Time) {
	c.cur = c.cur[:0]
	c.cursor = 0
	if w >= len(c.wins) || c.wins[w] == nil {
		return
	}
	head := c.wins[w]
	c.wins[w] = nil
	n := 0
	for ch := head; ch != nil; ch = ch.next {
		n += ch.n
	}
	if n > len(c.ends) {
		// Grow the merge buffer and its sub-bucket offsets together,
		// doubling from eight chunks' worth (20 KB): smaller buffers cost
		// more in regrowth than they save. (An adopted calendar's cur may
		// be longer than ends; it is replaced all the same.)
		size := max(n, 2*len(c.ends), 8*chunkSize)
		c.cur = make([]planeEvent, 0, size)
		c.ends = make([]int32, size)
	}
	// Count, take exclusive prefix sums, scatter: afterwards ends[b] is
	// the end of sub-bucket b in cur.
	c.cur = c.cur[:n]
	ends := c.ends[:n]
	clear(ends)
	scale := float64(n) / (hi - lo)
	sub := func(at sim.Time) int {
		b := int((at - lo) * scale)
		if uint(b) >= uint(n) {
			if b < 0 {
				return 0
			}
			return n - 1
		}
		return b
	}
	// Counting also reverses the chunk list, so the scatter visits events
	// in insertion order. Seqs ascend in insertion order, so a sub-bucket
	// of events on one time (a spawn burst) arrives already ordered.
	var prev *evChunk
	for ch := head; ch != nil; {
		for i := range ch.ev[:ch.n] {
			ends[sub(ch.ev[i].at)]++
		}
		next := ch.next
		ch.next = prev
		prev, ch = ch, next
	}
	head = prev
	var off int32
	for b, cnt := range ends {
		ends[b] = off
		off += cnt
	}
	for ch := head; ch != nil; {
		for i := range ch.ev[:ch.n] {
			b := sub(ch.ev[i].at)
			c.cur[ends[b]] = ch.ev[i]
			ends[b]++
		}
		next := ch.next
		c.recycle(ch)
		ch = next
	}
	start := int32(0)
	for _, end := range ends {
		switch run := c.cur[start:end]; {
		case len(run) > insertionMax:
			slices.SortFunc(run, planeEventLess)
		case len(run) > 1:
			insertionSort(run)
		}
		start = end
	}
}

// insertionSort orders a short run of events by (at, seq).
func insertionSort(evs []planeEvent) {
	for i := 1; i < len(evs); i++ {
		ev := evs[i]
		j := i
		for ; j > 0 && (evs[j-1].at > ev.at || evs[j-1].at == ev.at && evs[j-1].seq > ev.seq); j-- {
			evs[j] = evs[j-1]
		}
		evs[j] = ev
	}
}

// recycle pushes ch on the free list. Events hold no pointers, so the
// chunk's stale events need no clearing.
func (c *shardCal) recycle(ch *evChunk) {
	ch.n = 0
	ch.next = c.free
	c.free = ch
}

// busy reports whether the shard's share of window w's barrier is worth a
// goroutine: decisions to refill, or more than one event to order.
func (c *shardCal) busy(w int) bool {
	if len(c.refill) > 0 {
		return true
	}
	if w >= len(c.wins) || c.wins[w] == nil {
		return false
	}
	return c.wins[w].n > 1 || c.wins[w].next != nil
}

// reset empties the calendar, keeping its chunks and buffers.
func (c *shardCal) reset() {
	for w, ch := range c.wins {
		for ch != nil {
			next := ch.next
			c.recycle(ch)
			ch = next
		}
		c.wins[w] = nil
	}
	c.wins = c.wins[:0]
	c.refill = c.refill[:0]
	c.cur = c.cur[:0]
	c.cursor = 0
}

// ShardKernel runs a host fleet in SoA form over K deterministic shard
// calendars merged against a sim.Engine: the host kernel of every
// single-project campaign, byte-identical to a Population of per-Host
// event loops on the same run.
type ShardKernel struct {
	eng    *sim.Engine
	server WorkSource
	retry  RetryAdvisor // server's optional backoff advisor; nil = flat IdleRetry
	cfg    HostConfig
	r      *rng.Source // population stream: host seeds only

	mu, sigma float64 // speed-down LogNormal parameters (see Host.init)
	buffer    int     // effective WorkBuffer (≥ 1)
	shards    int
	window    float64

	// SoA host plane, indexed by host ID (see plane.go).
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
	task        []inflight
	cacheLen    []int32
	cache       []*wcg.Assignment // flat slab, buffer slots per host

	active      int
	firstActive int // hosts[:firstActive] are all stopped (stop-oldest cursor)

	// Spawn-slot pool (see plane.go), consumed FIFO from poolHead.
	pool     []spawnSlot
	poolHead int
	seedBuf  []uint64

	// SpawnHint, set by the campaign, predicts how many hosts the next
	// weekly tick will spawn, so prepWindow can top the slot pool up in
	// parallel before the tick runs. Overprediction is harmless (slots
	// carry pre-drawn seeds; nothing else reads the population stream);
	// nil or underprediction falls back to inline serial builds.
	SpawnHint func(week float64) int

	// Shard calendars (see shardCal); the merge reads each shard's armed
	// window from cals[sh].cur.
	cals    []shardCal
	prepFn  func(sh int) // k.prepShard, bound once so barriers do not allocate
	win     int          // current window index
	winEnd  sim.Time     // (win+1)·window
	armed   bool         // first RunUntil preps window 0 lazily
	overlay []planeEvent // min-heap of in-window insertions

	// Late-return payloads, one slot per pending evLate event, with an
	// intrusive free list headed by lateFree (-1 = none). Touched only by
	// the serial merge.
	lates    []lateRec
	lateFree int32

	livePlane int // plane events scheduled and not yet executed
	peekSrc   int // peekPlane result: shard index, or overlaySrc / noneSrc
}

const (
	overlaySrc = -1
	noneSrc    = -2
)

// NewShardKernel builds an empty sharded fleet bound to the engine and the
// project work source. shards is the worker count K (≥ 1); window is the
// barrier width W in seconds (a performance knob — any positive value is
// correct; see the package notes above). The kernel copies r's state and
// draws host seeds from its own stream from then on.
func NewShardKernel(engine *sim.Engine, server WorkSource, cfg HostConfig, r *rng.Source, shards int, window float64) *ShardKernel {
	k := &ShardKernel{}
	k.prepFn = k.prepShard
	k.Reset(engine, server, cfg, r, shards, window)
	return k
}

// Reset rearms the kernel for another run on a freshly reset engine and
// server: zero hosts joined, new configuration and seed stream, every
// backing array retained. The pooled counterpart of Population.Reset.
func (k *ShardKernel) Reset(engine *sim.Engine, server WorkSource, cfg HostConfig, r *rng.Source, shards int, window float64) {
	if cfg.MeanSpeedDown <= 0 {
		panic("volunteer: mean speed-down must be positive")
	}
	if shards < 1 {
		panic("volunteer: shard count must be >= 1")
	}
	if !(window > 0) {
		panic("volunteer: shard window must be positive")
	}
	k.eng = engine
	k.server = server
	k.retry, _ = server.(RetryAdvisor)
	k.cfg = cfg
	k.r = r
	k.sigma = cfg.SpeedDownSigma
	k.mu = math.Log(cfg.MeanSpeedDown) + k.sigma*k.sigma/2
	k.buffer = cfg.WorkBuffer
	if k.buffer < 1 {
		k.buffer = 1
	}
	k.window = window

	k.flags = k.flags[:0]
	k.speedDown = k.speedDown[:0]
	k.src = k.src[:0]
	k.dec = k.dec[:0]
	k.errorProb = k.errorProb[:0]
	k.abandonProb = k.abandonProb[:0]
	k.phase = k.phase[:0]
	k.onlineSpan = k.onlineSpan[:0]
	k.joinedAt = k.joinedAt[:0]
	k.hardware = k.hardware[:0]
	k.done = k.done[:0]
	k.cpuSpent = k.cpuSpent[:0]
	clear(k.task)
	k.task = k.task[:0]
	k.cacheLen = k.cacheLen[:0]
	clear(k.cache)
	k.cache = k.cache[:0]
	k.active, k.firstActive = 0, 0
	k.pool = k.pool[:0]
	k.poolHead = 0

	k.shards = shards
	k.cals = slices.Grow(k.cals[:0], shards)[:shards]
	for sh := range k.cals {
		k.cals[sh].reset()
	}
	k.overlay = k.overlay[:0]
	k.clearLates()
	k.win, k.winEnd = 0, window
	k.armed = false
	k.livePlane = 0
	k.peekSrc = noneSrc
	k.SpawnHint = nil
}

// scheduleHostEvent enqueues a host continuation at time `at`, drawing the
// tie-break seq and the Pending accounting from the engine exactly as an
// engine-side ScheduleAfter would.
func (k *ShardKernel) scheduleHostEvent(h int32, kind uint8, at sim.Time) {
	k.insert(planeEvent{at: at, seq: k.eng.TakeSeq(), host: h, aux: int32(kind)})
}

// scheduleLate enqueues an abandoned-late-return continuation; its
// assignment and reported seconds wait in a late slot.
func (k *ShardKernel) scheduleLate(h int32, at sim.Time, a *wcg.Assignment, reported float64) {
	k.insert(planeEvent{at: at, seq: k.eng.TakeSeq(), host: h, aux: k.allocLate(a, reported)})
}

// allocLate stores a late return's payload in a free slot of the late
// slab, growing it when none is free, and returns the evLate aux word.
func (k *ShardKernel) allocLate(a *wcg.Assignment, reported float64) int32 {
	i := k.lateFree
	if i < 0 {
		i = int32(len(k.lates))
		k.lates = append(k.lates, lateRec{a: a, reported: reported})
	} else {
		k.lateFree = k.lates[i].next
		k.lates[i] = lateRec{a: a, reported: reported}
	}
	return i<<kindBits | int32(evLate)
}

// takeLate returns the payload in slot i and frees the slot.
func (k *ShardKernel) takeLate(i int32) (*wcg.Assignment, float64) {
	r := &k.lates[i]
	a, reported := r.a, r.reported
	*r = lateRec{next: k.lateFree}
	k.lateFree = i
	return a, reported
}

// clearLates empties the late slab, dropping every assignment it held.
func (k *ShardKernel) clearLates() {
	clear(k.lates)
	k.lates = k.lates[:0]
	k.lateFree = -1
}

// insert routes one event to the overlay heap (due inside the current
// window) or to its shard's future-window bucket.
func (k *ShardKernel) insert(ev planeEvent) {
	k.eng.ExternalSchedule()
	k.livePlane++
	if ev.at < k.winEnd {
		k.overlayPush(ev)
		return
	}
	k.cals[int(ev.host)%k.shards].push(k.windowOf(ev.at), ev)
}

// windowOf returns the window w with float64(w)·W ≤ at < float64(w+1)·W,
// the bounds prepWindow arms. The quotient at/W alone can round across a
// boundary either way, which would file an event one window late or into
// a window already gathered.
func (k *ShardKernel) windowOf(at sim.Time) int {
	w := int(at / k.window)
	for w > 0 && at < float64(w)*k.window {
		w--
	}
	for at >= float64(w+1)*k.window {
		w++
	}
	return w
}

// overlayPush / overlayPop: a plain binary min-heap on (at, seq).
func (k *ShardKernel) overlayPush(ev planeEvent) {
	q := append(k.overlay, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if planeEventLess(q[i], q[p]) >= 0 {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	k.overlay = q
}

func (k *ShardKernel) overlayPop() planeEvent {
	q := k.overlay
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && planeEventLess(q[c+1], q[c]) < 0 {
			c++
		}
		if planeEventLess(q[c], q[i]) >= 0 {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	k.overlay = q
	return top
}

// peekPlane returns the ordering key of the earliest plane event in the
// current window (across the K sorted bucket heads and the overlay),
// remembering which source holds it for popPlane.
func (k *ShardKernel) peekPlane() (at sim.Time, seq uint64, ok bool) {
	best := noneSrc
	var bt sim.Time
	var bs uint64
	for sh := range k.cals {
		c := &k.cals[sh]
		if c.cursor >= len(c.cur) {
			continue
		}
		ev := &c.cur[c.cursor]
		if best == noneSrc || ev.at < bt || (ev.at == bt && ev.seq < bs) {
			best, bt, bs = sh, ev.at, ev.seq
		}
	}
	if len(k.overlay) > 0 {
		ov := &k.overlay[0]
		if best == noneSrc || ov.at < bt || (ov.at == bt && ov.seq < bs) {
			best, bt, bs = overlaySrc, ov.at, ov.seq
		}
	}
	k.peekSrc = best
	return bt, bs, best != noneSrc
}

// popPlane removes and returns the event peekPlane found.
func (k *ShardKernel) popPlane() planeEvent {
	if k.peekSrc == overlaySrc {
		return k.overlayPop()
	}
	c := &k.cals[k.peekSrc]
	ev := c.cur[c.cursor]
	c.cursor++
	return ev
}

// exec runs one plane event through the host model, mirroring the engine's
// clock/executed accounting first (exactly as Step orders it).
func (k *ShardKernel) exec(ev planeEvent) {
	k.eng.ExternalExecute(ev.at)
	k.livePlane--
	switch ev.kind() {
	case evFetch:
		k.fetch(ev.host)
	case evDone:
		k.taskDone(ev.host)
	default:
		a, reported := k.takeLate(ev.lateSlot())
		k.lateReturn(ev.host, a, reported)
	}
}

// runParallel fans fn(0..shards-1) over goroutines, running shard 0 on the
// caller. Shards touch disjoint host-ID ranges and their own buckets, so
// the barrier is the only synchronization the data plane needs.
func (k *ShardKernel) runParallel(fn func(sh int)) {
	if k.shards == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(k.shards - 1)
	for sh := 1; sh < k.shards; sh++ {
		go func(sh int) {
			defer wg.Done()
			fn(sh)
		}(sh)
	}
	fn(0)
	wg.Wait()
}

// prepWindow is the window barrier: top up the spawn pool if a weekly
// tick falls inside the new window, then in parallel refill consumed
// decision tuples and gather each shard's bucket of the new window into
// its merge buffer in (time, seq) order.
func (k *ShardKernel) prepWindow(w int) {
	k.win = w
	k.winEnd = float64(w+1) * k.window

	if k.SpawnHint != nil {
		wStart := float64(w) * k.window
		week := math.Ceil(wStart / sim.Week)
		if tick := week * sim.Week; tick >= wStart && tick < k.winEnd {
			if need := k.SpawnHint(week) - (len(k.pool) - k.poolHead); need > 0 {
				k.topUpPool(need)
			}
		}
	}

	// Fan out when some shard has work; otherwise the barrier is cheaper
	// run inline.
	for sh := range k.cals {
		if k.cals[sh].busy(w) {
			k.runParallel(k.prepFn)
			return
		}
	}
	for sh := range k.cals {
		k.prepShard(sh)
	}
}

// prepShard is one shard's share of the window barrier: refill the
// consumed decision tuples, then gather the armed window.
func (k *ShardKernel) prepShard(sh int) {
	c := &k.cals[sh]
	k.refillDecisions(c)
	c.gather(k.win, float64(k.win)*k.window, k.winEnd)
}

// refillDecisions draws the next decision tuple of every host on the
// shard's refill list and empties the list.
func (k *ShardKernel) refillDecisions(c *shardCal) {
	for _, h := range c.refill {
		k.dec[h] = computeDecision(&k.src[h], k.errorProb[h], k.abandonProb[h],
			k.cfg.LateReturnProb, k.flags[h]&hfTurned != 0, k.flags[h]&hfSaboteur != 0)
	}
	c.refill = c.refill[:0]
}

// topUpPool extends the spawn-slot pool by n slots: seeds drawn serially
// from the population stream (preserving the per-Host draw order — nothing
// else reads it), slot transcripts built in parallel.
func (k *ShardKernel) topUpPool(n int) {
	if k.poolHead > 0 {
		m := copy(k.pool, k.pool[k.poolHead:])
		k.pool = k.pool[:m]
		k.poolHead = 0
	}
	k.seedBuf = k.seedBuf[:0]
	for i := 0; i < n; i++ {
		k.seedBuf = append(k.seedBuf, k.r.Uint64())
	}
	base := len(k.pool)
	for i := 0; i < n; i++ {
		k.pool = append(k.pool, spawnSlot{})
	}
	slots := k.pool[base:]
	k.runParallel(func(sh int) {
		for i := sh; i < n; i += k.shards {
			k.buildSlot(&slots[i], k.seedBuf[i])
		}
	})
}

// RunUntil merges plane and engine events in global ascending (time, seq)
// order, executing everything with time ≤ deadline and advancing the clock
// to the deadline, exactly as Engine.RunUntil does for a single heap.
// Callable repeatedly with growing deadlines (the campaign runs the phase
// horizon, then the straggler drain).
func (k *ShardKernel) RunUntil(deadline sim.Time) {
	k.run(deadline, true)
	k.eng.AdvanceTo(deadline)
}

// RunBefore merges and executes events with timestamps strictly before
// deadline, exactly as RunUntil would order them, and stops without
// advancing the clock to the deadline or prepping the window that
// contains it. The snapshot/fork path uses it to end a shared prefix at
// a divergence time T: the window barrier covering T (bucket gathering,
// decision refills, spawn-pool top-up) runs in each forked suffix, under
// the forked cell's config, exactly as a straight run of that cell would
// have run it.
func (k *ShardKernel) RunBefore(deadline sim.Time) { k.run(deadline, false) }

// run is the merge loop behind RunUntil (inclusive: events at the
// deadline run) and RunBefore (exclusive).
func (k *ShardKernel) run(deadline sim.Time, inclusive bool) {
	e := k.eng
	if !k.armed {
		k.prepWindow(k.win)
		k.armed = true
	}
	// past reports whether time t lies beyond what this call executes.
	past := func(t sim.Time) bool { return t > deadline || (!inclusive && t == deadline) }
	for {
		pt, pseq, pok := k.peekPlane()
		et, eseq, eok := e.Peek()
		if pok && (!eok || pt < et || (pt == et && pseq < eseq)) {
			if past(pt) {
				break
			}
			k.exec(k.popPlane())
			continue
		}
		if eok && et < k.winEnd {
			if past(et) {
				break
			}
			e.Step()
			continue
		}
		// Current window exhausted on both calendars (any engine head
		// lies in a later window). Advance the window barrier — jumping
		// straight to the engine head's window when no plane events
		// remain anywhere — while the next window can still hold events
		// this call executes (its start is the current winEnd).
		if k.livePlane == 0 {
			if !eok || past(et) {
				break
			}
			k.prepWindow(k.windowOf(et))
			continue
		}
		if past(k.winEnd) {
			break
		}
		k.prepWindow(k.win + 1)
	}
}
