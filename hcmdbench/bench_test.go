package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/project"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // descending: percentile must not rely on order
	}
	v, beyond := percentile(xs, 0.9)
	if v != 90 || beyond != 10 {
		t.Fatalf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	if xs[0] != 100 {
		t.Fatal("percentile reordered its input")
	}
	if _, beyond := percentile(xs[:99], 0.9); beyond >= 10 {
		t.Fatalf("99 samples leave %d beyond p90, want fewer than 10", beyond)
	}
	if v, beyond := percentile(xs, 0.5); v != 50 || beyond != 50 {
		t.Fatalf("p50 = %v with %d beyond, want 50 with 50", v, beyond)
	}
}

func TestSweepLayersWithholdsThinP90(t *testing.T) {
	for _, tc := range []struct {
		cells int
		want  float64
	}{{99, 0}, {100, 90}} {
		b := &bench{layer: map[string]metric{}}
		var l sweepLayers
		for i := 1; i <= tc.cells; i++ {
			l.cellWalls = append(l.cellWalls, float64(i))
		}
		l.set(b)
		if got := b.layer["experiment.cell_s_p90"].Value; got != tc.want {
			t.Errorf("%d cells: cell_s_p90 = %v, want %v", tc.cells, got, tc.want)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "b", Start: 2, End: 5},   // overlaps a: [1,5] counted once
		{ID: 4, Parent: 1, Name: "c", Start: 8, End: 12},  // clipped to the parent's end
		{ID: 5, Parent: 2, Name: "a.1", Start: 1, End: 2}, // a grandchild is a's, not op's
	}
	if got := selfTime(spans, 1); math.Abs(got-4) > 1e-12 {
		t.Errorf("op self time = %v, want 4", got)
	}
	if got := selfTime(spans, 2); math.Abs(got-1) > 1e-12 {
		t.Errorf("a self time = %v, want 1", got)
	}
	if got := selfTime(spans, 5); got != 1 {
		t.Errorf("leaf self time = %v, want its duration 1", got)
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	id := tr.open(1, 0, "x", 0)
	tr.close(id)
	tr.time(1, id, "y", 0, func() {})
	if id != 0 || tr.named("x") != nil {
		t.Fatal("a nil tracer recorded something")
	}
}

// smallReport runs a small campaign and returns its rendered output.
func smallReport(t *testing.T) []byte {
	t.Helper()
	cfg := core.NewHCMD().CampaignConfig(1.0/336, 0)
	cfg.Seed = 7
	out, err := renderReport(project.NewRunner().Run(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestOracleCountsPerturbedOutputAsFailedOp(t *testing.T) {
	good := smallReport(t)
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 1

	// Pinned: the expected hash is known up front.
	b := &bench{orc: &oracle{want: hashOf(good), pinned: true}}
	b.verify(good, 1, "run")
	if b.failed != 0 {
		t.Fatalf("pinned oracle rejected the pinned output")
	}
	b.verify(bad, 1, "run")
	if b.failed != 1 {
		t.Fatalf("pinned oracle: failed = %d after a one-byte perturbation, want 1", b.failed)
	}

	// Identity: the first output (a fresh runner's) is the reference.
	b = &bench{orc: &oracle{}}
	b.verify(good, 1, "run")
	b.verify(good, 1, "run")
	b.verify(bad, 1, "run")
	if b.failed != 1 {
		t.Fatalf("identity oracle: failed = %d, want 1", b.failed)
	}

	// A failed sweep counts every cell it holds.
	b = &bench{orc: &oracle{want: hashOf(good)}}
	b.verify(bad, 124, "sweep")
	if b.failed != 124 {
		t.Fatalf("sweep: failed = %d, want 124", b.failed)
	}
}

func TestOracleFilePinsEveryWorkload(t *testing.T) {
	for _, w := range append(workloadNames(), "megagrid", "whatif-probe") {
		o, err := newOracle(w, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		if !o.pinned || len(o.want) != 64 {
			t.Errorf("%s: no pinned hash for seed %d", w, defaultSeed)
		}
		if o, _ := newOracle(w, defaultSeed+1); o.pinned {
			t.Errorf("%s: seed %d claims a pin", w, defaultSeed+1)
		}
	}
}

//go:noinline
func spin(d time.Duration) (x float64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

func TestProfileAttributesLeafPackages(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p := newCPUProfile()
	if err := p.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if p.total <= 0 {
		t.Fatal("no CPU samples decoded")
	}
	attributed := 0.0
	for _, v := range p.selfByPkg {
		attributed += v
	}
	if math.Abs(attributed-p.total) > 1e-9 {
		t.Errorf("per-package self time %v does not add up to the total %v", attributed, p.total)
	}
	// spin is main.spin in the benchmark binary and repro/hcmdbench.spin
	// in the test binary.
	if p.selfByPkg["main"]+p.selfByPkg["hcmdbench"]+p.selfByPkg["time"]+p.selfByPkg["math"] < p.total/2 {
		t.Errorf("spin's CPU not attributed to its packages: %v", p.selfByPkg)
	}
}

func TestLeafPackage(t *testing.T) {
	for in, want := range map[string]string{
		"repro/internal/volunteer.(*ShardKernel).prepWindow.func1": "volunteer",
		"runtime.mallocgc":     "runtime",
		"main.spin":            "main",
		"slices.SortFunc[...]": "slices",
	} {
		if got := leafPackage(in); got != want {
			t.Errorf("leafPackage(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step:
// the same workloads and the same per-layer metrics with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	names := workloadNames()
	if len(doc.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(names))
	}
	for i, w := range doc.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, names[i])
		}
	}
	if len(doc.PerLayer) != len(perLayerNames) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(doc.PerLayer), len(perLayerNames))
	}
	for i, m := range doc.PerLayer {
		if m.Name != perLayerNames[i] || m.Unit != perLayerUnits[m.Name] {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], program %s [%s]",
				i, m.Name, m.Unit, perLayerNames[i], perLayerUnits[perLayerNames[i]])
		}
	}
	want := map[string]string{"setup_s": "s", "campaign_s": "s", "cells_per_s": "1/s", "peak_rss_mb": "MB"}
	for _, m := range doc.EndToEnd {
		if want[m.Name] != m.Unit {
			t.Errorf("end-to-end %s [%s] is not one the program reports", m.Name, m.Unit)
		}
		delete(want, m.Name)
	}
	if len(want) > 0 {
		t.Errorf("BENCHMARK.json lacks end-to-end metrics %v", want)
	}
}
