package faults

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/wcg"
)

// maxFuzzWindows bounds the expected schedule length FuzzWindows builds,
// so a tiny period over a long horizon costs a skip, not the fuzzer's
// memory.
const maxFuzzWindows = 1e5

// normalizedOK returns c.Normalized(), or false where normalisation
// rejects the config.
func normalizedOK(c Config) (norm Config, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return c.Normalized(), true
}

// FuzzWindows checks the outage schedule over any config Normalized
// accepts, any seed and any horizon up to four years: the windows are
// sorted, disjoint and non-empty, each starts inside [0, horizon), the
// same seed yields the same schedule, and wcg.NewServer accepts it.
func FuzzWindows(f *testing.F) {
	f.Fuzz(func(t *testing.T, every, offset, duration, perWeek, mean float64, seed uint64, horizon float64) {
		norm, ok := normalizedOK(Config{
			MaintenanceEvery:     every,
			MaintenanceOffset:    offset,
			MaintenanceDuration:  duration,
			UnplannedPerWeek:     perWeek,
			UnplannedMeanSeconds: mean,
		})
		if !ok {
			t.Skip("config rejected by Normalized")
		}
		if !(horizon >= 0 && horizon <= 208*sim.Week) {
			t.Skip("horizon outside [0, 208 weeks]")
		}
		if norm.MaintenanceEvery > 0 && horizon/norm.MaintenanceEvery > maxFuzzWindows ||
			norm.UnplannedPerWeek*horizon/sim.Week > maxFuzzWindows {
			t.Skip("schedule too long")
		}
		wins := Windows(&norm, seed, horizon)
		for i, w := range wins {
			if !(w.Start >= 0 && w.Start < horizon) {
				t.Fatalf("window %d %+v starts outside [0, %v)", i, w, horizon)
			}
			if !(w.End > w.Start) {
				t.Fatalf("window %d %+v is empty", i, w)
			}
			if i > 0 && !(w.Start > wins[i-1].End) {
				t.Fatalf("windows %d %+v and %d %+v are unsorted, overlapping or touching", i-1, wins[i-1], i, w)
			}
		}
		if again := Windows(&norm, seed, horizon); !reflect.DeepEqual(wins, again) {
			t.Fatalf("seed %d: two calls built different schedules", seed)
		}
		srvCfg := wcg.DefaultConfig()
		srvCfg.Outages = ServerOutages(wins)
		wcg.NewServer(sim.NewEngine(), srvCfg)
	})
}
