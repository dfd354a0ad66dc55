// The deterministic sharded time-window kernel: the execution half of the
// mega-grid data plane (see plane.go for the SoA layout).
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
// they sort the window's bucket by (time, seq) and refill the consumed
// per-host decision transcripts (plus, before a weekly tick, the spawn
// slot pool). Between barriers a single goroutine merges the K sorted
// bucket heads, the overlay heap and the engine's own heap in global
// ascending (time, seq) order and executes the model serially.
//
// # Byte-identity with the sequential kernel
//
// The legacy single-heap kernel breaks time ties FIFO by a sequence number
// assigned at scheduling time. The sharded kernel draws its sequence
// numbers from the same engine counter (Engine.TakeSeq) at exactly the
// moments the legacy code would have scheduled, and mirrors the engine's
// live/executed/clock accounting through ExternalSchedule/ExternalExecute.
// Every model draw comes from the same per-host stream positions (see the
// decision transcripts in plane.go). Shard count K therefore changes only
// WHO precomputes a value, never the value or the execution order: reports
// are byte-identical for K=1, K=N and the legacy kernel, fresh and pooled
// (golden-hash tests in internal/project pin all three).
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

// ShardKernel runs a host fleet in SoA form over K deterministic shard
// calendars merged against a sim.Engine. It is the drop-in mega-grid
// replacement for Population + per-Host event scheduling on a
// single-project campaign.
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

	// Shard calendars: buckets[shard][window] holds that shard's events
	// due in [window·W, (window+1)·W), appended unsorted during the merge
	// and sorted at the window barrier. Merged windows recycle their
	// backing arrays through freeB.
	buckets [][][]planeEvent
	freeB   [][][]planeEvent
	refill  [][]int32 // hosts whose decision tuple was consumed this window

	win     int      // current window index
	winEnd  sim.Time // (win+1)·window
	armed   bool     // first RunUntil preps window 0 lazily
	prevWin int
	curBuf  [][]planeEvent // per-shard current-window sorted slice
	cursor  []int          // per-shard read index into curBuf
	overlay []planeEvent   // min-heap of in-window insertions

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

	if shards != k.shards {
		k.shards = shards
		k.buckets = make([][][]planeEvent, shards)
		k.freeB = make([][][]planeEvent, shards)
		k.refill = make([][]int32, shards)
		k.curBuf = make([][]planeEvent, shards)
		k.cursor = make([]int, shards)
	} else {
		for sh := 0; sh < shards; sh++ {
			for w, b := range k.buckets[sh] {
				if b != nil {
					clear(b)
					k.freeB[sh] = append(k.freeB[sh], b[:0])
					k.buckets[sh][w] = nil
				}
			}
			k.refill[sh] = k.refill[sh][:0]
			k.curBuf[sh] = nil
			k.cursor[sh] = 0
		}
	}
	clear(k.overlay)
	k.overlay = k.overlay[:0]
	k.win, k.winEnd = 0, window
	k.armed = false
	k.prevWin = -1
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
	sh := int(ev.host) % k.shards
	w := int(ev.at / k.window) // ≥ win+1: at ≥ winEnd and (win+1)·W is representable
	bs := k.buckets[sh]
	for len(bs) <= w {
		bs = append(bs, nil)
	}
	if bs[w] == nil {
		if n := len(k.freeB[sh]); n > 0 {
			bs[w] = k.freeB[sh][n-1]
			k.freeB[sh] = k.freeB[sh][:n-1]
		}
	}
	bs[w] = append(bs[w], ev)
	k.buckets[sh] = bs
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
	for sh := 0; sh < k.shards; sh++ {
		c := k.cursor[sh]
		if c >= len(k.curBuf[sh]) {
			continue
		}
		ev := &k.curBuf[sh][c]
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
	sh := k.peekSrc
	ev := k.curBuf[sh][k.cursor[sh]]
	k.cursor[sh]++
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

// prepWindow is the window barrier: recycle the merged window, top up the
// spawn pool if a weekly tick falls inside the new window, then in
// parallel refill consumed decision tuples and sort the new window's
// buckets, and finally arm the merge cursors.
func (k *ShardKernel) prepWindow(w int) {
	for sh := 0; sh < k.shards; sh++ {
		if prev := k.prevWin; prev >= 0 && prev < len(k.buckets[sh]) {
			if b := k.buckets[sh][prev]; b != nil {
				clear(b)
				k.freeB[sh] = append(k.freeB[sh], b[:0])
				k.buckets[sh][prev] = nil
			}
		}
	}
	k.prevWin = w
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

	work := false
	for sh := 0; sh < k.shards; sh++ {
		if len(k.refill[sh]) > 0 || k.bucketLen(sh, w) > 1 {
			work = true
			break
		}
	}
	if work {
		k.runParallel(func(sh int) {
			for _, h := range k.refill[sh] {
				k.dec[h] = computeDecision(&k.src[h], k.errorProb[h], k.abandonProb[h],
					k.cfg.LateReturnProb, k.flags[h]&hfTurned != 0, k.flags[h]&hfSaboteur != 0)
			}
			if b := k.bucket(sh, w); len(b) > 1 {
				slices.SortFunc(b, planeEventLess)
			}
		})
	}
	for sh := 0; sh < k.shards; sh++ {
		k.refill[sh] = k.refill[sh][:0]
		k.curBuf[sh] = k.bucket(sh, w)
		k.cursor[sh] = 0
	}
}

func (k *ShardKernel) bucket(sh, w int) []planeEvent {
	if w < len(k.buckets[sh]) {
		return k.buckets[sh][w]
	}
	return nil
}

func (k *ShardKernel) bucketLen(sh, w int) int { return len(k.bucket(sh, w)) }

// topUpPool extends the spawn-slot pool by n slots: seeds drawn serially
// from the population stream (preserving the legacy draw order — nothing
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
	e := k.eng
	if !k.armed {
		k.prepWindow(k.win)
		k.armed = true
	}
	for {
		pt, pseq, pok := k.peekPlane()
		et, eseq, eok := e.Peek()
		if pok && (!eok || pt < et || (pt == et && pseq < eseq)) {
			if pt > deadline {
				break
			}
			ev := k.popPlane()
			k.exec(ev)
			continue
		}
		if eok && et < k.winEnd {
			if et > deadline {
				break
			}
			e.Step()
			continue
		}
		// Current window exhausted on both calendars (any engine head
		// lies in a later window). Advance the window barrier — jumping
		// straight to the engine head's window when no plane events
		// remain anywhere — or stop at the deadline.
		if k.livePlane == 0 {
			if !eok || et > deadline {
				break
			}
			k.prepWindow(int(et / k.window))
			continue
		}
		if k.winEnd > deadline {
			break
		}
		k.prepWindow(k.win + 1)
	}
	e.AdvanceTo(deadline)
}

// RunBefore merges and executes events with timestamps strictly before
// deadline, exactly as RunUntil would order them, and stops without
// advancing the clock to the deadline or prepping the window that
// contains it. The snapshot/fork path uses it to end a shared prefix at
// a divergence time T: the window barrier covering T (bucket sorting,
// decision refills, spawn-pool top-up) runs in each forked suffix, under
// the forked cell's config, exactly as a straight run of that cell would
// have run it.
func (k *ShardKernel) RunBefore(deadline sim.Time) {
	e := k.eng
	if !k.armed {
		k.prepWindow(k.win)
		k.armed = true
	}
	for {
		pt, pseq, pok := k.peekPlane()
		et, eseq, eok := e.Peek()
		if pok && (!eok || pt < et || (pt == et && pseq < eseq)) {
			if pt >= deadline {
				break
			}
			ev := k.popPlane()
			k.exec(ev)
			continue
		}
		if eok && et < k.winEnd {
			if et >= deadline {
				break
			}
			e.Step()
			continue
		}
		// Current window exhausted on both calendars; advance the barrier
		// only while the next window can still hold events before the
		// deadline (its start is the current winEnd).
		if k.livePlane == 0 {
			if !eok || et >= deadline {
				break
			}
			k.prepWindow(int(et / k.window))
			continue
		}
		if k.winEnd >= deadline {
			break
		}
		k.prepWindow(k.win + 1)
	}
}
