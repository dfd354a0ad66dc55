package volunteer

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wcg"
	"repro/internal/workunit"
)

// calendarSlots counts the event slots a kernel's shard calendars retain:
// every chunk, free or holding a bucket, plus each shard's merge buffer.
func calendarSlots(k *ShardKernel) int {
	n := 0
	for sh := range k.cals {
		c := &k.cals[sh]
		for ch := c.free; ch != nil; ch = ch.next {
			n += chunkSize
		}
		for _, ch := range c.wins {
			for ; ch != nil; ch = ch.next {
				n += chunkSize
			}
		}
		n += cap(c.cur)
	}
	return n
}

// liveWindows counts the future windows holding at least one event.
func liveWindows(k *ShardKernel) int {
	n := 0
	for sh := range k.cals {
		for _, ch := range k.cals[sh].wins {
			if ch != nil {
				n++
			}
		}
	}
	return n
}

// calendarRun drives k through a campaign-shaped run at the CI bench
// scale (a few dozen hosts for eight weeks, a three-week ramp to ~550,
// full power to week 26, then the straggler drain) and returns the peak
// number of live windows, sampled right before every window barrier —
// the moment the calendar holds the most chunks, since chunks are only
// taken by inserts and only returned at barriers.
func calendarRun(t *testing.T, k *ShardKernel, eng *sim.Engine, srv *wcg.Server) (peakWins int) {
	t.Helper()
	for i := 0; i < 60000; i++ {
		srv.AddWorkunit(workunit.Workunit{ID: int64(i), ISepLo: 1, ISepHi: 10, RefSeconds: 3.3 * sim.Hour}, 0)
	}
	eng.Every(0, sim.Week, func(now sim.Time) {
		switch w := now / sim.Week; {
		case w < 8:
			k.SetTarget(30)
		case w < 11:
			k.SetTarget(30 + int(520*(w-8)/3))
		case w < 26:
			k.SetTarget(550)
		default:
			k.SetTarget(0)
		}
	})
	end := 26*sim.Week + 30*sim.Day
	for m := 1; float64(m)*k.window < end; m++ {
		k.RunBefore(float64(m) * k.window)
		if n := liveWindows(k); n > peakWins {
			peakWins = n
		}
	}
	k.RunUntil(end)
	return peakWins
}

// TestShardCalendarBoundedByLiveEvents is the calendar-leak regression:
// after a pooled K=1 kernel runs the same campaign twice, the slots its
// calendar retains must stay within twice the run's peak pending events
// plus one chunk per live window. A calendar that recycles whole bucket
// arrays keeps each at the size of the busiest window it ever held and
// retains tens of times the live events instead.
func TestShardCalendarBoundedByLiveEvents(t *testing.T) {
	eng := sim.NewEngine()
	srvCfg := wcg.DefaultConfig()
	srv := wcg.NewServer(eng, srvCfg)
	cfg := DefaultHostConfig()
	const window = 1.85 * sim.Hour // the campaign's barrier width at 3.7-hour workunits
	k := NewShardKernel(eng, srv, cfg, rng.New(5), 1, window)
	calendarRun(t, k, eng, srv)

	eng.Reset()
	srv.Reset(srvCfg)
	k.Reset(eng, srv, cfg, rng.New(5), 1, window)
	peakWins := calendarRun(t, k, eng, srv)

	peak := eng.MaxPending()
	slots := calendarSlots(k)
	limit := 2*peak + chunkSize*peakWins
	t.Logf("calendar retains %d slots; peak pending %d, peak live windows %d, limit %d", slots, peak, peakWins, limit)
	if srv.Stats.Completed == 0 {
		t.Fatal("the run completed no work")
	}
	if slots > limit {
		t.Errorf("calendar retains %d event slots, more than 2×%d peak pending + %d×%d live windows = %d",
			slots, peak, chunkSize, peakWins, limit)
	}
}
