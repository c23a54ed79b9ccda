package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"tbpoint/internal/gpusim"
	"tbpoint/internal/sampler"
)

func fastOpts() Options {
	o := DefaultOptions(0.02)
	o.UnitDivisor = 100
	o.MinUnitInsts = 500
	return o
}

func TestRunBenchmarkSmall(t *testing.T) {
	opts := fastOpts()
	cfg := gpusim.DefaultConfig()
	cfg.NumSMs = 4
	for _, name := range []string{"cfd", "mst"} {
		r, err := runByName(name, cfg, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.FullIPC <= 0 {
			t.Errorf("%s: no full IPC", name)
		}
		if len(r.Samplers) != len(sampler.DefaultSet()) {
			t.Errorf("%s: %d outcomes, want the default trio", name, len(r.Samplers))
		}
		for _, n := range sampler.DefaultSet() {
			if o, ok := r.Outcome(n); !ok || o.Estimate.PredictedIPC <= 0 {
				t.Errorf("%s: %s predicted nothing", name, n)
			}
		}
		tb := r.Samplers[sampler.NameTBPoint].Estimate
		if tb.SampleSize <= 0 || tb.SampleSize > 1 {
			t.Errorf("%s: sample size %v", name, tb.SampleSize)
		}
	}
}

func runByName(name string, cfg gpusim.Config, opts Options) (*BenchResult, error) {
	opts.Benchmarks = []string{name}
	specs, err := opts.specs()
	if err != nil {
		return nil, err
	}
	return RunBenchmark(specs[0], cfg, opts)
}

func TestRunAccuracySubset(t *testing.T) {
	opts := fastOpts()
	opts.Benchmarks = []string{"stream", "black"}
	results, _, err := RunAccuracy(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	var buf bytes.Buffer
	PrintFig9(&buf, results)
	PrintFig10(&buf, results)
	PrintFig11(&buf, results)
	out := buf.String()
	for _, want := range []string{"Figure 9", "Figure 10", "Figure 11", "stream", "black", "geomean"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestRunAccuracyUnknownBenchmark(t *testing.T) {
	opts := fastOpts()
	opts.Benchmarks = []string{"nope"}
	if _, _, err := RunAccuracy(opts); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestUnitSizeClamps pins the one unit-size rule (cmd/tbpoint, the facade's
// callers and the gpusim golden counters all size their units through it).
func TestUnitSizeClamps(t *testing.T) {
	o := DefaultOptions(1)
	cases := []struct {
		total, want int64
	}{
		{100, 2000},          // floor
		{400 * 1000, 2000},   // still under the floor
		{400 * 5000, 5000},   // proportional
		{400 << 21, 1 << 20}, // cap at the paper's 1M
	}
	for _, c := range cases {
		if got := o.UnitSize(c.total); got != c.want {
			t.Errorf("UnitSize(%d) = %d, want %d", c.total, got, c.want)
		}
	}
}

func TestRunFig5(t *testing.T) {
	results := RunFig5(500, 3)
	if len(results) != len(Fig5Configs()) {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.Within10 < 0.95 {
			t.Errorf("config %+v violates Lemma 4.1: %.3f", r.Config, r.Within10)
		}
		if r.MeanIPC <= 0 || r.MeanIPC > 1 {
			t.Errorf("config %+v mean IPC %v", r.Config, r.MeanIPC)
		}
	}
	var buf bytes.Buffer
	PrintFig5(&buf, results)
	if !strings.Contains(buf.String(), "Lemma 4.1") {
		t.Error("fig5 report incomplete")
	}
}

func TestRunFig8(t *testing.T) {
	series, err := RunFig8([]string{"conv", "mst"}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("got %d series", len(series))
	}
	if series[0].Name != "conv" || series[1].Name != "mst" {
		t.Error("series order")
	}
	var buf bytes.Buffer
	PrintFig8(&buf, series)
	if !strings.Contains(buf.String(), "Figure 8") {
		t.Error("fig8 report incomplete")
	}
	if _, err := RunFig8([]string{"nope"}, fastOpts()); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunTable6(t *testing.T) {
	rows, err := RunTable6(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("got %d rows", len(rows))
	}
	var buf bytes.Buffer
	PrintTable6(&buf, rows, 0.02)
	if !strings.Contains(buf.String(), "Table VI") {
		t.Error("table6 report incomplete")
	}
}

func TestMeasureSimThroughput(t *testing.T) {
	thr := measureThroughput("cfd", 0.01, nil)
	if thr <= 0 {
		t.Error("non-positive throughput")
	}
}

func TestHumanDuration(t *testing.T) {
	cases := []struct {
		secs float64
		want string
	}{
		{30, "minutes"},
		{7200, "hours"},
		{3 * 24 * 3600, "days"},
		{15 * 24 * 3600, "weeks"},
	}
	for _, c := range cases {
		got := humanDuration(durationSeconds(c.secs))
		if !strings.Contains(got, c.want) {
			t.Errorf("humanDuration(%vs) = %q, want %q", c.secs, got, c.want)
		}
	}
}

func TestRunSensitivitySmall(t *testing.T) {
	opts := fastOpts()
	opts.Benchmarks = []string{"stream"}
	results, _, err := RunSensitivity(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(HWConfigs()) {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		// Fig. 12's columns and the per-strategy map are the same TBPoint
		// estimate, and the map covers the whole (default) selection.
		if tb, ok := r.Samplers[sampler.NameTBPoint]; !ok || tb.Err != r.Err || tb.Estimate.SampleSize != r.SampleSize {
			t.Errorf("%s %s: tbpoint outcome %+v disagrees with err %v size %v",
				r.Bench, r.Config.Name(), tb, r.Err, r.SampleSize)
		}
		if len(r.Samplers) != len(sampler.DefaultSet()) {
			t.Errorf("%s %s: %d outcomes, want the default trio", r.Bench, r.Config.Name(), len(r.Samplers))
		}
		if r.SampleSize <= 0 || r.SampleSize > 1 {
			t.Errorf("%s %s: sample %v", r.Bench, r.Config.Name(), r.SampleSize)
		}
		if r.Err < 0 {
			t.Errorf("%s: negative error", r.Bench)
		}
	}
	var buf bytes.Buffer
	PrintFig12(&buf, results)
	PrintFig13(&buf, results)
	out := buf.String()
	if !strings.Contains(out, "Figure 12") || !strings.Contains(out, "Figure 13") {
		t.Error("sensitivity report incomplete")
	}
	if !strings.Contains(out, "W16S8") {
		t.Error("missing config column")
	}
}

func TestGeoFloor(t *testing.T) {
	// Exact zeros must not collapse the geomean.
	g := geo([]float64{0, 0.01})
	if g < 0.0009 {
		t.Errorf("geo([0, 0.01]) = %v too small", g)
	}
}

func TestTableWriter(t *testing.T) {
	tb := &table{header: []string{"a", "bb"}}
	tb.addRow("1", "2")
	tb.addRow("333", "4")
	var buf bytes.Buffer
	tb.write(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
}

// durationSeconds converts seconds to a time.Duration for tests.
func durationSeconds(s float64) time.Duration { return time.Duration(s * 1e9) }

// withParallelism runs f under the given harness worker budget.
func withParallelism(workers int, f func()) {
	old := Parallelism
	Parallelism = workers
	defer func() { Parallelism = old }()
	f()
}

// TestParallelMatchesSequential: Parallelism = 1 is the sequential path of
// the one grid runner, and a fanned-out run must reproduce it exactly.
func TestParallelMatchesSequential(t *testing.T) {
	opts := fastOpts()
	opts.Benchmarks = []string{"stream", "black", "hotspot"}
	run := func(workers int) (results []*BenchResult) {
		withParallelism(workers, func() {
			var cellErrs []CellError
			var err error
			results, cellErrs, err = RunAccuracy(opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(cellErrs) != 0 {
				t.Fatalf("fault-free run reported cell errors: %+v", cellErrs)
			}
		})
		return results
	}
	seq, par := run(1), run(4)
	if len(par) != len(seq) || len(seq) != len(opts.Benchmarks) {
		t.Fatalf("length mismatch %d vs %d", len(par), len(seq))
	}
	for i := range seq {
		if par[i].Name != seq[i].Name {
			t.Fatalf("order differs: %s vs %s", par[i].Name, seq[i].Name)
		}
		if !reflect.DeepEqual(par[i], seq[i]) {
			t.Errorf("%s: parallel run differs from sequential\n got: %+v\nwant: %+v", seq[i].Name, par[i], seq[i])
		}
	}
}

func TestSensitivityParallelMatches(t *testing.T) {
	opts := fastOpts()
	opts.Benchmarks = []string{"stream"}
	run := func(workers int) (results []SensResult) {
		withParallelism(workers, func() {
			var cellErrs []CellError
			var err error
			results, cellErrs, err = RunSensitivity(opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(cellErrs) != 0 {
				t.Fatalf("fault-free run reported cell errors: %+v", cellErrs)
			}
		})
		return results
	}
	seq, par := run(1), run(4)
	if len(par) != len(seq) || len(seq) != len(HWConfigs()) {
		t.Fatalf("length mismatch %d vs %d", len(par), len(seq))
	}
	for i := range seq {
		if !reflect.DeepEqual(par[i], seq[i]) {
			t.Errorf("cell %d differs: %+v vs %+v", i, par[i], seq[i])
		}
	}
}

func TestForEachIndexedError(t *testing.T) {
	err := forEachIndexed(nil, 10, func(i int) error {
		if i == 7 {
			return errBoom
		}
		return nil
	})
	if err == nil {
		t.Error("error swallowed")
	}
	// Sequential path (single worker).
	old := Parallelism
	Parallelism = 1
	defer func() { Parallelism = old }()
	if err := forEachIndexed(nil, 3, func(i int) error { return nil }); err != nil {
		t.Error(err)
	}
}

var errBoom = fmt.Errorf("boom")

func TestResultsJSONRoundTrip(t *testing.T) {
	opts := fastOpts()
	opts.Benchmarks = []string{"stream"}
	acc, _, err := RunAccuracy(opts)
	if err != nil {
		t.Fatal(err)
	}
	bundle := &Results{
		Scale:    opts.Scale,
		Table1:   &Table1Result{SimWarpInstsPerSec: 1e6, Slowdown: 6250},
		Fig5:     RunFig5(100, 1),
		Accuracy: acc,
	}
	var buf bytes.Buffer
	if err := bundle.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Scale != bundle.Scale || len(back.Accuracy) != 1 || len(back.Fig5) != len(bundle.Fig5) {
		t.Error("round trip lost data")
	}
	if !reflect.DeepEqual(back.Accuracy[0], acc[0]) {
		t.Errorf("accuracy values mangled:\n got %+v\nwant %+v", back.Accuracy[0], acc[0])
	}
	if back.Table1.Slowdown != bundle.Table1.Slowdown {
		t.Error("table1 mangled")
	}
	if _, err := ReadResults(strings.NewReader("{garbage")); err == nil {
		t.Error("bad JSON accepted")
	}
}

func TestRunMotivation(t *testing.T) {
	opts := fastOpts()
	opts.Benchmarks = []string{"kmeans", "bfs"}
	results, err := RunMotivation(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.Units < 2 {
			t.Errorf("%s: %d launches (need pairs)", r.Bench, r.Units)
		}
		if r.BBVCorr < -1 || r.BBVCorr > 1 || r.FeatureCorr < -1 || r.FeatureCorr > 1 {
			t.Errorf("%s: correlations out of range: %v %v", r.Bench, r.BBVCorr, r.FeatureCorr)
		}
	}
	var buf bytes.Buffer
	PrintMotivation(&buf, results)
	if !strings.Contains(buf.String(), "Motivation") {
		t.Error("report incomplete")
	}
	if _, err := RunMotivation(Options{Benchmarks: []string{"nope"}}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestMotivationBBVWeakOnIrregular(t *testing.T) {
	// The §III claim is that BBVs correlate weakly with GPGPU performance
	// (Lau et al. measured ~0.9 on CPUs): on the irregular bfs, whose
	// performance differences are divergence-driven, the BBV correlation
	// must stay far below the CPU-class level.
	opts := fastOpts()
	opts.Scale = 0.1
	opts.Benchmarks = []string{"bfs"}
	results, err := RunMotivation(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r := results[0]; r.BBVCorr > 0.8 {
		t.Errorf("BBV corr %+.3f unexpectedly CPU-like on bfs", r.BBVCorr)
	}
}

func TestRunTable1PerKernel(t *testing.T) {
	res := RunTable1PerKernelMetrics(0.01, nil)
	if len(res.Rows) != 7 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	if res.SimWarpInstsPerSec <= 0 || res.Slowdown <= 0 {
		t.Errorf("calibration: %v warp insts/s, slowdown %v", res.SimWarpInstsPerSec, res.Slowdown)
	}
	for _, row := range res.Rows {
		if row.WarpInstsPerSec <= 0 {
			t.Errorf("%s: no per-kernel throughput", row.Kernel.Name)
		}
		if row.SimTime <= 0 {
			t.Errorf("%s: no projection", row.Kernel.Name)
		}
	}
	var buf bytes.Buffer
	PrintTable1(&buf, res)
	if out := buf.String(); !strings.Contains(out, "Table I") || !strings.Contains(out, "sim insts/s") {
		t.Errorf("table1 report incomplete:\n%s", out)
	}
}

func TestRunAblationsSmall(t *testing.T) {
	opts := fastOpts()
	opts.Scale = 0.05
	results, err := RunAblations(opts)
	if err != nil {
		t.Fatal(err)
	}
	// 3 warming variants x 3 benches + 3 sigma variants x 1 bench.
	if len(results) != 12 {
		t.Fatalf("got %d cells, want 12", len(results))
	}
	for _, r := range results {
		if r.SampleSize <= 0 || r.SampleSize > 1 {
			t.Errorf("%s/%s/%s: sample %v", r.Study, r.Variant, r.Bench, r.SampleSize)
		}
	}
	var buf bytes.Buffer
	PrintAblations(&buf, results)
	if !strings.Contains(buf.String(), "warming") {
		t.Error("ablation report incomplete")
	}
}
