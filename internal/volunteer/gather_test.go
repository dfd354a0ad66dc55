package volunteer

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wcg"
)

// boundaryWindow is a barrier width at which the quotient at/W rounds
// across window boundaries: float64(6832)·W / W truncates to 6831, and the
// largest time below float64(9)·W divides to exactly 9.
const boundaryWindow = 5717.817998824595

// TestWindowOfFloatBoundaries pins windowOf to the exact bounds the
// barrier arms, [float64(w)·W, float64(w+1)·W), at both rounding
// directions of the division, and checks that insert files events by them.
func TestWindowOfFloatBoundaries(t *testing.T) {
	eng := sim.NewEngine()
	k := NewShardKernel(eng, wcg.NewServer(eng, wcg.DefaultConfig()), DefaultHostConfig(), rng.New(1), 1, boundaryWindow)

	end := float64(6832) * boundaryWindow // the end of window 6831
	if int(end/boundaryWindow) != 6831 {
		t.Fatalf("int(%v/W) = %d; the counterexample no longer rounds down", end, int(end/boundaryWindow))
	}
	below := math.Nextafter(float64(9)*boundaryWindow, 0) // the last time of window 8
	if int(below/boundaryWindow) != 9 {
		t.Fatalf("int(%v/W) = %d; the counterexample no longer rounds up", below, int(below/boundaryWindow))
	}
	for _, tc := range []struct {
		at   sim.Time
		want int
	}{
		{end, 6832},
		{math.Nextafter(end, 0), 6831},
		{below, 8},
		{float64(9) * boundaryWindow, 9},
		{0, 0},
	} {
		if got := k.windowOf(tc.at); got != tc.want {
			t.Errorf("windowOf(%v) = %d, want %d", tc.at, got, tc.want)
		}
	}

	// Every time filed lies inside its window's armed bounds.
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 100000; i++ {
		k.window = 1 + 1e4*r.Float64()
		w := r.IntN(1 << 20)
		lo, hi := float64(w)*k.window, float64(w+1)*k.window
		for _, at := range []sim.Time{lo, math.Nextafter(lo, hi), math.Nextafter(hi, lo), hi} {
			if got := k.windowOf(at); !(float64(got)*k.window <= at && at < float64(got+1)*k.window) {
				t.Fatalf("W=%v: windowOf(%v) = %d, outside [%v, %v)", k.window, at, got,
					float64(got)*k.window, float64(got+1)*k.window)
			}
		}
	}
	k.window = boundaryWindow

	// insert files an event at the end of the armed window 6831 into
	// window 6832, not into the bucket the barrier already gathered, and
	// the last event of window 8 into window 8, not one window late.
	k.prepWindow(6831)
	k.scheduleHostEvent(0, evFetch, end)
	if c := &k.cals[0]; len(c.wins) <= 6832 || c.wins[6832] == nil || c.wins[6831] != nil {
		t.Errorf("event at the end of window 6831 was not filed into window 6832")
	}
	k.Reset(eng, k.server, k.cfg, rng.New(1), 1, boundaryWindow)
	k.scheduleHostEvent(0, evFetch, below)
	if c := &k.cals[0]; len(c.wins) <= 8 || c.wins[8] == nil || len(c.wins) > 9 {
		t.Errorf("event at the end of window 8 was not filed into window 8")
	}
}

// fuzzEvents decodes two bytes per event into a window [lo, hi): the top
// two bits of the first byte pick the window start, the last time below
// its end, one of 64 evenly spaced times, or one time shared by every
// such event; the second byte is the high part of a unique seq, so equal
// times carry seqs in no particular insertion order.
func fuzzEvents(data []byte, lo, hi sim.Time) []planeEvent {
	last := math.Nextafter(hi, lo)
	inside := func(at sim.Time) sim.Time { return min(max(at, lo), last) }
	evs := make([]planeEvent, 0, len(data)/2)
	for i := 0; i+1 < len(data) && len(evs) < 8192; i += 2 {
		b, tag := data[i], data[i+1]
		var at sim.Time
		switch b >> 6 {
		case 0:
			at = lo
		case 1:
			at = last
		case 2:
			at = inside(lo + (hi-lo)*float64(b&63)/64)
		default:
			at = inside(lo + (hi-lo)/3)
		}
		evs = append(evs, planeEvent{at: at, seq: uint64(tag)<<32 | uint64(len(evs)), host: int32(len(evs)), aux: int32(tag)<<kindBits | int32(b&3)})
	}
	return evs
}

// shuffleChunks relinks bucket w's chunks in a seeded random order, as an
// adopted calendar may hold them.
func shuffleChunks(c *shardCal, w int, seed uint64) {
	var chunks []*evChunk
	for ch := c.wins[w]; ch != nil; ch = ch.next {
		chunks = append(chunks, ch)
	}
	rand.New(rand.NewPCG(seed, seed>>32)).Shuffle(len(chunks), func(i, j int) {
		chunks[i], chunks[j] = chunks[j], chunks[i]
	})
	var head *evChunk
	for _, ch := range chunks {
		ch.next = head
		head = ch
	}
	c.wins[w] = head
}

// FuzzShardCalGather checks the barrier's distribution sort against a
// comparison sort: whatever the times (ties, window edges, one shared
// time), the window bounds and the chunk order, gather must leave the
// window's events in exactly slices.SortFunc's (at, seq) order and return
// every chunk.
func FuzzShardCalGather(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, window float64, win uint32, order uint64) {
		if !(window >= 1e-3 && window <= 1e7) {
			window = 1.85 * sim.Hour
		}
		w := int(win % (1 << 24))
		lo, hi := float64(w)*window, float64(w+1)*window
		if !(lo < hi) {
			t.Skip("empty window")
		}
		evs := fuzzEvents(data, lo, hi)
		var c shardCal
		for _, ev := range evs {
			c.push(0, ev)
		}
		if len(evs) > 0 {
			shuffleChunks(&c, 0, order)
		}
		want := slices.Clone(evs)
		slices.SortFunc(want, planeEventLess)
		c.gather(0, lo, hi)
		if !slices.Equal(c.cur, want) {
			t.Fatalf("gather of %d events in [%v, %v) differs from the comparison sort", len(evs), lo, hi)
		}
		if len(c.wins) > 0 && c.wins[0] != nil {
			t.Fatal("gather left chunks in the bucket")
		}
	})
}

// BenchmarkShardCalGather measures the window barrier's precompute phase
// alone: one shard's window of about 1,500 events (the campaign's
// full-power load at scale 1/4), filed into chunks outside the timer with
// seqs ascending in filing order, as the engine counter issues them, and
// gathered into (at, seq) order inside it.
//   - uniform: times spread over the window;
//   - tied: every event on one time, a spawn burst at a weekly tick;
//   - clustered: eight bursts, each 1/1000 of the window wide with its
//     events on 16 distinct times.
func BenchmarkShardCalGather(b *testing.B) {
	const (
		n      = 1500
		window = 1.85 * sim.Hour
		w      = 1000
	)
	lo, hi := float64(w)*window, float64(w+1)*window
	r := rand.New(rand.NewPCG(7, 7))
	for _, tc := range []struct {
		name string
		at   func(i int) sim.Time
	}{
		{"uniform", func(int) sim.Time { return lo + (hi-lo)*r.Float64() }},
		{"tied", func(int) sim.Time { return lo + (hi-lo)/2 }},
		{"clustered", func(i int) sim.Time {
			return lo + (hi-lo)*(float64(i%8)/8+float64(r.IntN(16))/16000)
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			evs := make([]planeEvent, n)
			for i := range evs {
				evs[i] = planeEvent{at: tc.at(i), seq: uint64(i), host: int32(i)}
			}
			var c shardCal
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for _, ev := range evs {
					c.push(w, ev)
				}
				b.StartTimer()
				c.gather(w, lo, hi)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
		})
	}
}

// TestGatherAfterAdopt covers a merge buffer that gather did not size: a
// fresh kernel adopting a busy armed window takes its merge buffer from
// the snapshot, and the next barrier must still scatter a window into it.
func TestGatherAfterAdopt(t *testing.T) {
	const window = 1.85 * sim.Hour
	eng := sim.NewEngine()
	k := NewShardKernel(eng, wcg.NewServer(eng, wcg.DefaultConfig()), DefaultHostConfig(), rng.New(1), 1, window)
	p := &PortableKernel{shards: 1, window: window, cals: make([]portableShard, 1), winEnd: window, armed: true}
	pc := &p.cals[0]
	for i := 0; i < 600; i++ {
		pc.cur = append(pc.cur, portablePlaneEvent{at: window * float64(i) / 600, seq: uint64(i), a: -1})
	}
	for i := 0; i < 500; i++ {
		pc.future = append(pc.future, portablePlaneEvent{at: window * (1 + float64(499-i)/500), seq: uint64(600 + i), a: -1})
	}
	p.livePlane = len(pc.cur) + len(pc.future)
	k.AdoptPortable(p, func(int32) *wcg.Assignment { return nil })

	k.prepWindow(1)
	cur := k.cals[0].cur
	if len(cur) != len(pc.future) || !slices.IsSortedFunc(cur, planeEventLess) {
		t.Fatalf("window 1 gathered %d events (want %d), sorted %v", len(cur), len(pc.future), slices.IsSortedFunc(cur, planeEventLess))
	}
}
