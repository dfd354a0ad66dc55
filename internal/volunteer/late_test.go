package volunteer

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wcg"
	"repro/internal/workunit"
)

// TestPlaneEventLayout pins the calendar event to 24 bytes with no
// pointer in it: the window barrier moves every event by value, and a
// pointer field would both widen it and make the collector scan it.
func TestPlaneEventLayout(t *testing.T) {
	if got := unsafe.Sizeof(planeEvent{}); got != 24 {
		t.Errorf("planeEvent is %d bytes, want 24", got)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
			t.Errorf("%s is a %s: calendar events must hold no pointer", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("planeEvent", reflect.TypeOf(planeEvent{}))
}

// lateKernel builds a K-shard kernel over a retained server stocked with
// work, with 300 default hosts joined at time 0: about 3% of their tasks
// end in a late return weeks later.
func lateKernel(shards int) (*ShardKernel, *wcg.Server) {
	eng := sim.NewEngine()
	srv := wcg.NewServer(eng, wcg.DefaultConfig())
	srv.Retain()
	for i := 0; i < 40000; i++ {
		srv.AddWorkunit(workunit.Workunit{ID: int64(i), ISepLo: 1, ISepHi: 10, RefSeconds: 3.3 * sim.Hour}, 0)
	}
	k := NewShardKernel(eng, srv, DefaultHostConfig(), rng.New(11), shards, 1.85*sim.Hour)
	k.SetTarget(300)
	return k, srv
}

// pendingLates maps the seq of every pending evLate event — in the
// overlay, the armed windows and the future windows — to its payload.
func pendingLates(t *testing.T, k *ShardKernel) map[uint64]lateRec {
	t.Helper()
	out := map[uint64]lateRec{}
	add := func(ev planeEvent) {
		if ev.kind() != evLate {
			return
		}
		r := k.lates[ev.lateSlot()]
		if r.a == nil {
			t.Fatalf("pending late return seq %d points at an empty slot %d", ev.seq, ev.lateSlot())
		}
		out[ev.seq] = r
	}
	for _, ev := range k.overlay {
		add(ev)
	}
	for sh := range k.cals {
		c := &k.cals[sh]
		for _, ev := range c.cur[c.cursor:] {
			add(ev)
		}
		for _, ch := range c.wins {
			for ; ch != nil; ch = ch.next {
				for _, ev := range ch.ev[:ch.n] {
					add(ev)
				}
			}
		}
	}
	return out
}

// freeLates walks the late slab's free list, failing on a slot that
// still holds an assignment or appears twice.
func freeLates(t *testing.T, k *ShardKernel) int {
	t.Helper()
	seen := map[int32]bool{}
	for i := k.lateFree; i >= 0; i = k.lates[i].next {
		if seen[i] {
			t.Fatalf("late slot %d is on the free list twice", i)
		}
		seen[i] = true
		if k.lates[i].a != nil {
			t.Fatalf("free late slot %d still holds an assignment", i)
		}
	}
	return len(seen)
}

// TestLateSlotsReused runs a fleet for twelve weeks, checking at every
// window barrier that each late slot is either pending on the calendar
// or free, and that the slab stays as small as the most late returns ever
// pending at once while far more pass through it. A Reset then leaves
// the slab empty and holding no assignment.
func TestLateSlotsReused(t *testing.T) {
	k, _ := lateKernel(2)
	seen := map[uint64]bool{}
	peak := 0
	for m := 1; float64(m)*k.window < 12*sim.Week; m++ {
		k.RunBefore(float64(m) * k.window)
		live := pendingLates(t, k)
		if free := freeLates(t, k); free+len(live) != len(k.lates) {
			t.Fatalf("window %d: %d pending + %d free late slots, slab holds %d", m, len(live), free, len(k.lates))
		}
		peak = max(peak, len(live))
		for seq := range live {
			seen[seq] = true
		}
	}
	t.Logf("%d late returns passed through %d slots (peak %d pending at a barrier)", len(seen), len(k.lates), peak)
	if len(seen) <= len(k.lates) {
		t.Errorf("%d late returns used %d slots: executed slots are not reused", len(seen), len(k.lates))
	}
	if peak == 0 {
		t.Fatal("the fixture scheduled no late return")
	}

	k.Reset(k.eng, k.server, k.cfg, rng.New(11), 2, k.window)
	if len(k.lates) != 0 || k.lateFree != -1 {
		t.Errorf("Reset left %d late slots, free head %d", len(k.lates), k.lateFree)
	}
	for i, r := range k.lates[:cap(k.lates)] {
		if r.a != nil {
			t.Fatalf("Reset kept an assignment in late slot %d", i)
		}
	}
}

// TestLateSlotsPortableRoundTrip exports a kernel holding pending late
// returns and adopts it into a fresh and into a dirty kernel: every
// pending evLate must come back with its assignment and reported seconds
// unchanged, in a slab holding exactly those slots.
func TestLateSlotsPortableRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 3} {
		k, srv := lateKernel(shards)
		k.RunBefore(5*sim.Week + 1234)
		want := pendingLates(t, k)
		p := k.ExportPortable()
		if len(want) == 0 || p.PendingLateReturns() != len(want) {
			t.Fatalf("K=%d: snapshot counts %d late returns, kernel has %d", shards, p.PendingLateReturns(), len(want))
		}

		dirty, _ := lateKernel(shards)
		dirty.RunBefore(7 * sim.Week)
		fresh := NewShardKernel(k.eng, srv, k.cfg, rng.New(1), shards, k.window)
		for name, ad := range map[string]*ShardKernel{"fresh": fresh, "dirty": dirty} {
			ad.AdoptPortable(p, srv.AssignmentAt)
			got := pendingLates(t, ad)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("K=%d %s adopter: %d pending late returns differ from the %d exported", shards, name, len(got), len(want))
			}
			if len(ad.lates) != len(want) || freeLates(t, ad) != 0 {
				t.Errorf("K=%d %s adopter: slab holds %d slots for %d late returns", shards, name, len(ad.lates), len(want))
			}
		}
	}
}
