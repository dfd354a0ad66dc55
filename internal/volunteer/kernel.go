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
// they gather the window's bucket and sort it by (time, seq), and refill
// the consumed per-host decision transcripts (plus, before a weekly tick,
// the spawn slot pool). Between barriers a single goroutine merges the K
// sorted bucket heads, the overlay heap and the engine's own heap in
// global ascending (time, seq) order and executes the model serially.
//
// Each window bucket is a list of fixed-size chunks from a per-shard free
// list, and the barrier gathers the window into a per-shard merge buffer
// before sorting it, so the calendar retains about its live events plus
// one chunk per live window, however busy an earlier window was.
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

// planeEvent is one host continuation in a shard calendar.
type planeEvent struct {
	at       sim.Time
	seq      uint64
	a        *wcg.Assignment // evLate only
	reported float64         // evLate only
	host     int32
	kind     uint8
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
// appended unsorted during the merge. The window barrier gathers the
// armed window's chunks into cur, sorts it there and returns the chunks
// to the shard's free list.
type shardCal struct {
	wins   []*evChunk
	free   *evChunk
	refill []int32      // hosts whose decision tuple was consumed this window
	cur    []planeEvent // the armed window's events, sorted by (at, seq)
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

// gather moves window w's events into cur, sorted, and recycles their
// chunks.
func (c *shardCal) gather(w int) {
	c.cur = c.cur[:0]
	c.cursor = 0
	if w >= len(c.wins) {
		return
	}
	for ch := c.wins[w]; ch != nil; {
		c.cur = append(c.cur, ch.ev[:ch.n]...)
		next := ch.next
		c.recycle(ch)
		ch = next
	}
	c.wins[w] = nil
	if len(c.cur) > 1 {
		slices.SortFunc(c.cur, planeEventLess)
	}
}

// recycle clears ch and pushes it on the free list.
func (c *shardCal) recycle(ch *evChunk) {
	clear(ch.ev[:ch.n])
	ch.n = 0
	ch.next = c.free
	c.free = ch
}

// busy reports whether the shard's share of window w's barrier is worth a
// goroutine: decisions to refill, or more than one event to sort.
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
	clear(c.cur)
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
	cur         []*wcg.Assignment
	curOutcome  []wcg.Outcome
	curReported []float64
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
	clear(k.cur)
	k.cur = k.cur[:0]
	k.curOutcome = k.curOutcome[:0]
	k.curReported = k.curReported[:0]
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
	clear(k.overlay)
	k.overlay = k.overlay[:0]
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
	k.insert(planeEvent{at: at, seq: k.eng.TakeSeq(), host: h, kind: kind})
}

// scheduleLate enqueues an abandoned-late-return continuation carrying its
// assignment and reported seconds.
func (k *ShardKernel) scheduleLate(h int32, at sim.Time, a *wcg.Assignment, reported float64) {
	k.insert(planeEvent{at: at, seq: k.eng.TakeSeq(), a: a, reported: reported, host: h, kind: evLate})
}

// insert routes one event to the overlay heap (due inside the current
// window — the exact comparison, immune to division rounding at the
// boundary) or to its shard's future-window bucket.
func (k *ShardKernel) insert(ev planeEvent) {
	k.eng.ExternalSchedule()
	k.livePlane++
	if ev.at < k.winEnd {
		k.overlayPush(ev)
		return
	}
	// w ≥ win+1: at ≥ winEnd and (win+1)·W is representable.
	k.cals[int(ev.host)%k.shards].push(int(ev.at/k.window), ev)
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
	q[n] = planeEvent{}
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
	switch ev.kind {
	case evFetch:
		k.fetch(ev.host)
	case evDone:
		k.taskDone(ev.host)
	default:
		k.lateReturn(ev.host, ev.a, ev.reported)
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
// decision tuples and gather and sort each shard's bucket of the new
// window into its merge buffer.
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
// consumed decision tuples, then gather and sort the armed window.
func (k *ShardKernel) prepShard(sh int) {
	c := &k.cals[sh]
	for _, h := range c.refill {
		k.dec[h] = computeDecision(&k.src[h], k.errorProb[h], k.abandonProb[h],
			k.cfg.LateReturnProb, k.flags[h]&hfTurned != 0, k.flags[h]&hfSaboteur != 0)
	}
	c.refill = c.refill[:0]
	c.gather(k.win)
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
// a divergence time T: the window barrier covering T (bucket sorting,
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
			k.prepWindow(int(et / k.window))
			continue
		}
		if past(k.winEnd) {
			break
		}
		k.prepWindow(k.win + 1)
	}
}
