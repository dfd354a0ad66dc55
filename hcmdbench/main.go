// Command hcmdbench is the repository benchmark. Each invocation runs one
// workload in its own process, driving the program only through its
// public API (core, project.Runner, experiment.Run), checks every output
// against a pinned oracle, and prints every metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every run starts with one untimed warm-up operation. With --trace 0
// the metrics are the end-to-end ones, measured untraced, as medians over
// the run's operations. With --trace 1 the run alternates untraced and
// traced operations; the traced ones record spans around the public calls
// into each layer and a CPU profile, and the metrics are the per-layer
// ones. Spans and profiles are kept in memory and written under --out
// when the run ends.
//
// Run it through run.sh, which builds it from source:
//
//	bash hcmdbench/run.sh --workload catalog-sweep --seed 1 --seconds 40 --trace 0
//
// README.md records why each workload was chosen.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/project"
)

// defaultSeed is the seed whose outputs oracle.json pins.
const defaultSeed = 1

// A run sets up setupFirst times before its first operation and
// setupAfterOp times after each timed one; setup_s is the median of all
// of them. A set-up takes milliseconds and the host's speed drifts over
// seconds, so spreading them over the run steadies the median.
const (
	setupFirst   = 5
	setupAfterOp = 3
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opStat is one timed operation (a campaign or one sweep pass) with the
// runtime counters it moved.
type opStat struct {
	wall   float64
	cells  int
	allocB float64
	allocN float64
	gcN    float64
	gcCPU  float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() [4]float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	var out [4]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// bench is one workload run: its options, the measurements taken so far
// and the correctness tally.
type bench struct {
	workload string
	seed     uint64
	workers  int
	sys      *core.System
	orc      *oracle

	tr       *tracer // nil in untraced runs
	prof     *cpuProfile
	profiles [][]byte

	attempted, failed int
	errs              []string
	hashNoted         bool
	warm              bool // the untimed warm-up operation is running

	untraced, traced      []opStat
	setup, buildS, beginS []float64 // per set-up repetition

	layer map[string]metric
	lines []string
}

func (b *bench) set(name string, v float64, unit string) { b.layer[name] = metric{v, unit} }

func (b *bench) note(format string, args ...any) {
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
}

// failOp counts the given number of cells (campaigns) as failed.
func (b *bench) failOp(cells int, format string, args ...any) {
	b.failed += cells
	b.errs = append(b.errs, fmt.Sprintf(format, args...))
}

// verify checks an operation's output against the oracle and counts its
// cells as failed when it differs. The first output's hash is printed:
// it is the value oracle.json pins.
func (b *bench) verify(out []byte, cells int, what string) {
	if !b.hashNoted {
		b.hashNoted = true
		b.note("output_sha256 %s", hashOf(out))
	}
	if !b.orc.check(out) {
		b.failOp(cells, "%s output %s differs from the expected %s", what, hashOf(out), b.orc.want)
	}
}

// workload is one benchmark input. config is the configuration whose first
// Runner.Begin ends set-up; op runs one operation (traced when traced is
// true), verifies its outputs and returns how many cells it completed and
// its wall time; layers fills the per-layer metrics after the last
// operation; campaignS gives campaign_s. minOps is the least number of
// timed untraced operations a run makes, however long they take.
type workload struct {
	name      string
	minOps    int
	config    func(b *bench) project.Config
	op        func(b *bench, opID int, traced bool) (cells int, wall float64)
	layers    func(b *bench)
	campaignS func(b *bench) float64
}

func main() {
	name := flag.String("workload", "", "workload: all, "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", defaultSeed, "workload seed (Config.Seed and Options.BaseSeed)")
	seconds := flag.Float64("seconds", 40, "how long to keep starting operations")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build/hcmdbench-out", "directory for spans and CPU profiles")
	flag.Parse()
	if *name == "all" {
		os.Exit(runAll())
	}
	w, ok := workloadByName(*name)
	if !ok || *seed == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "hcmdbench: bad arguments (workloads: %s; seed ≥ 1)\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := run(w, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hcmdbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hcmdbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runAll runs every workload in a process of its own, passing the other
// arguments on, and fails if any of them fails.
func runAll() int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hcmdbench:", err)
		return 1
	}
	status := 0
	for _, w := range workloadNames() {
		// A repeated flag takes its last value, so this overrides "all".
		cmd := exec.Command(exe, append(os.Args[1:], "--workload", w)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "hcmdbench: %s: %v\n", w, err)
			status = 1
		}
	}
	return status
}

func run(w workload, seed uint64, seconds float64, traced bool, outDir string) (*result, error) {
	orc, err := newOracle(w.name, seed)
	if err != nil {
		return nil, err
	}
	b := &bench{
		workload: w.name, seed: seed, workers: runtime.GOMAXPROCS(0),
		orc: orc, layer: map[string]metric{},
	}
	stamp := machineStamp()
	b.note("machine %s", stamp)
	mode := "identity"
	if orc.pinned {
		mode = "pinned"
	}
	b.note("workload %s seed %d oracle %s", w.name, seed, mode)

	// Set-up: build the system and the configuration, then arm a fresh
	// runner up to its first event; operations use the last system built.
	setup := func(n int) {
		for range n {
			runtime.GC()
			t0 := time.Now()
			b.sys = core.NewHCMD()
			t1 := time.Now()
			cfg := w.config(b)
			t2 := time.Now()
			project.NewRunner().Begin(cfg)
			t3 := time.Now()
			b.setup = append(b.setup, t3.Sub(t0).Seconds())
			b.buildS = append(b.buildS, t1.Sub(t0).Seconds())
			b.beginS = append(b.beginS, t3.Sub(t2).Seconds())
		}
	}
	setup(setupFirst)
	if traced {
		b.tr = newTracer()
		b.prof = newCPUProfile()
	}

	// Warm-up: one untimed operation fills the pooled runners' arenas and
	// caches. Its output is checked like any other, and for a seed
	// without a pinned hash it is the reference later ones must equal.
	b.warm = true
	runtime.GC()
	cells, wall := w.op(b, 0, false)
	b.warm = false
	b.attempted += cells
	b.note("op 0 warm-up wall %.4f s cells %d", wall, cells)

	start := time.Now()
	for op := 1; ; op++ {
		elapsed := time.Since(start).Seconds()
		doTrace := traced && op%2 == 0
		if elapsed >= seconds {
			if !traced && len(b.untraced) >= w.minOps {
				break
			}
			if traced && len(b.traced) >= 1 && !doTrace {
				break
			}
		}
		runtime.GC()
		var buf bytes.Buffer
		if doTrace {
			if err := pprof.StartCPUProfile(&buf); err != nil {
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
		}
		r0 := readRuntime()
		cells, wall := w.op(b, op, doTrace)
		r1 := readRuntime()
		st := opStat{wall: wall, cells: cells, allocB: r1[0] - r0[0], allocN: r1[1] - r0[1], gcN: r1[2] - r0[2], gcCPU: r1[3] - r0[3]}
		if doTrace {
			pprof.StopCPUProfile()
			b.profiles = append(b.profiles, buf.Bytes())
			if err := b.prof.add(buf.Bytes()); err != nil {
				return nil, err
			}
			b.traced = append(b.traced, st)
			b.note("op %d traced wall %.4f s cells %d", op, wall, cells)
		} else {
			b.untraced = append(b.untraced, st)
			b.note("op %d untraced wall %.4f s cells %d", op, wall, cells)
		}
		setup(setupAfterOp)
	}

	if traced {
		b.layerCommon()
		w.layers(b)
	}
	var rates []float64
	for _, st := range b.untraced {
		b.attempted += st.cells
		rates = append(rates, float64(st.cells)/st.wall)
	}
	for _, st := range b.traced {
		b.attempted += st.cells
	}
	e2e := map[string]metric{
		"setup_s":     {median(b.setup), "s"},
		"campaign_s":  {w.campaignS(b), "s"},
		"cells_per_s": {median(rates), "1/s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
	if b.attempted == 0 {
		return nil, fmt.Errorf("no operation completed")
	}
	res := &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: e2e}
	if traced {
		res.Metrics = b.layer
		if err := b.writeTrace(outDir, stamp); err != nil {
			return nil, err
		}
	}
	for _, e := range b.errs {
		b.note("FAILED %s", e)
	}
	for _, l := range b.lines {
		fmt.Println(l)
	}
	fmt.Printf("metric error_rate %.6g ratio (%d failed of %d ops)\n",
		float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	printMetrics(res.Metrics)
	return res, nil
}

// layerCommon fills the per-layer metrics every workload shares.
func (b *bench) layerCommon() {
	b.set("core.build_s", median(b.buildS), "s")
	b.set("project.begin_s", median(b.beginS), "s")
	var allocB, allocN, gcN, gcCPU, uw, tw []float64
	for _, st := range b.untraced {
		allocB = append(allocB, st.allocB/(1<<20))
		allocN = append(allocN, st.allocN)
		gcN = append(gcN, st.gcN)
		gcCPU = append(gcCPU, st.gcCPU)
		uw = append(uw, st.wall)
	}
	for _, st := range b.traced {
		tw = append(tw, st.wall)
	}
	b.set("runtime.alloc_mb", median(allocB), "MB")
	b.set("runtime.allocs", median(allocN), "count")
	b.set("runtime.gc_cycles", median(gcN), "count")
	b.set("gc.cpu_s", median(gcCPU), "s")
	b.set("trace.overhead_frac", median(tw)/median(uw)-1, "ratio")
	n := float64(len(b.traced))
	for _, pkg := range []string{"sim", "wcg", "volunteer", "credit", "stats", "slab", "faults", "experiment", "project"} {
		b.set(pkg+".self_s", b.prof.selfByPkg[pkg]/n, "s")
	}
	// Metrics of layers a workload does not reach read 0.
	for _, name := range perLayerNames {
		if _, ok := b.layer[name]; !ok {
			b.set(name, 0, perLayerUnits[name])
		}
	}
}

// writeTrace writes the spans, the per-package profile totals and each
// traced operation's CPU profile under dir.
func (b *bench) writeTrace(dir, stamp string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", b.workload, b.seed))
	doc := struct {
		Machine   json.RawMessage    `json:"machine"`
		Workload  string             `json:"workload"`
		Seed      uint64             `json:"seed"`
		CPUByPkg  map[string]float64 `json:"cpu_s_by_leaf_package"`
		CPUTotal  float64            `json:"cpu_s_total"`
		Spans     []span             `json:"spans"`
		SelfTimes map[string]float64 `json:"self_s_by_span_name"`
	}{json.RawMessage(stamp), b.workload, b.seed, b.prof.selfByPkg, b.prof.total, b.tr.spans, map[string]float64{}}
	for _, s := range b.tr.spans {
		doc.SelfTimes[s.Name] += selfTime(b.tr.spans, s.ID)
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+"-trace.json", data, 0o644); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	for i, p := range b.profiles {
		if err := os.WriteFile(fmt.Sprintf("%s-cpu%d.pprof", base, i+1), p, 0o644); err != nil {
			return fmt.Errorf("trace output: %w", err)
		}
	}
	b.note("trace written to %s-trace.json (%d spans, %d CPU profiles)", base, len(b.tr.spans), len(b.profiles))
	return nil
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %s %.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// machineStamp records what the numbers were measured on.
func machineStamp() string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	data, _ := json.Marshal(map[string]any{ // a map of strings and ints always marshals
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": model,
	})
	return string(data)
}

// peakRSSMB is the process's VmHWM in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
