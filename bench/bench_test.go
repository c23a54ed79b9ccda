package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"tbpoint/internal/server"
)

// benchmarkJSON mirrors BENCHMARK.json exactly; unknown keys fail the test.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesCode keeps the contract file and the code in step:
// every workload and metric one names, the other names, with the same unit,
// direction and bound.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, defaultSeconds = %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of at most 64 letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code %d", len(b.Workloads), len(workloadDefs))
	}
	for i, w := range b.Workloads {
		unique(w.Name)
		if d := workloadDefs[i]; w.Name != d.Name || w.Why != d.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, w.Name, w.Why, d.Name, d.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the code %d", len(b.EndToEnd), len(endToEndMetrics))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		unique(m.Name)
		d := endToEndMetrics[i]
		if m.Bound == nil || m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || *m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, m, d)
			continue
		}
		if *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, *m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if len(b.PerLayer) != len(perLayerMetrics) || len(b.PerLayer) > 128 {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the code %d (at most 128)", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, m := range b.PerLayer {
		unique(m.Name)
		d := perLayerMetrics[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, m, d)
		}
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bad unit %q or direction %q", m.Name, m.Unit, m.Better)
		}
		if d.Layer == "" || d.Moves == "" {
			t.Errorf("%s: the code must say which layer it belongs to and what it should move", m.Name)
		}
	}
	for _, m := range exactLayerMetrics {
		if !seen[m] {
			t.Errorf("exactLayerMetrics names %s, which is not a per-layer metric", m)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at the tiny size, once
// untraced and once traced, and checks that the run is correct and that the
// metrics emitted are exactly the ones named.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, def := range workloadDefs {
		def := def
		t.Run(def.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				d, err := runOne(runConfig{
					workload: def.Name, seed: 7, seconds: 0, traced: traced,
					workdir: t.TempDir(), size: tinySize, keepSpans: true,
				}, time.Now())
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !d.Result.Correct || d.Result.Attempted < 1 || d.Result.Failed != 0 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d: %v", traced, d.Result.Correct, d.Result.Attempted, d.Result.Failed, d.Failures)
				}
				want := endToEndMetrics
				if traced {
					want = perLayerMetrics
				}
				if len(d.Result.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics emitted, %d named", traced, len(d.Result.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := d.Result.Metrics[m.Name]
					if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("traced=%v: metric %s = %+v (present %v), want unit %s", traced, m.Name, v, ok, m.Unit)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, v.Value)
					}
				}
				if traced && len(d.Spans) == 0 {
					t.Error("the traced run kept no spans")
				}
			}
		})
	}
}

// TestResultLineHasExactlyTheContractKeys pins the shape of the line the
// driver parses.
func TestResultLineHasExactlyTheContractKeys(t *testing.T) {
	var out, errOut bytes.Buffer
	dir := t.TempDir()
	code := realMain([]string{"--workload", "fullref-parsm", "--seed", "5", "--seconds", "0", "--trace", "0", "-workdir", dir}, &out, &errOut, time.Now(), tinySize)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(got) != 4 {
		t.Errorf("result line has %d keys, want exactly 4: %s", len(got), lines[len(lines)-1])
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("the run left %d entries in its workdir", len(entries))
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]int{5: 50, 39: 50, 40: 75, 48: 75, 99: 75, 100: 90, 192: 90, 200: 95, 1000: 99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestQuartilesMatchPython: statistics.quantiles([1, 2, 4, 8, 16], n=4) is
// [1.5, 4.0, 12.0].
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{16, 1, 8, 2, 4})
	if q1 != 1.5 || med != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, med, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "op", Start: 1, End: 9},
		{ID: 3, Parent: 2, Name: "a.x", Start: 1, End: 4},
		{ID: 4, Parent: 2, Name: "b.y", Start: 3, End: 6}, // overlaps a.x by 1
		{ID: 5, Parent: 2, Name: "a.x", Start: 7, End: 8},
		{ID: 6, Name: "probe", Start: 10, End: 12},
		{ID: 7, Parent: 6, Name: "probe.c", Start: 10, End: 11},
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{1: 2, 2: 2, 3: 3, 4: 3, 5: 1, 6: 1, 7: 1} {
		if math.Abs(self[id]-want) > 1e-12 {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	layer := layerSelf(spans, 1)
	if layer["a.x"] != 4 || layer["b.y"] != 3 || layer["op"] != 2 || layer["probe.c"] != 0 {
		t.Errorf("layerSelf = %v", layer)
	}
}

// TestSameBundleCanFail: the served-against-one-shot check passes on equal
// bundles, tolerates only a last-digit difference in a float, and fails on a
// flipped byte and on a changed result.
func TestSameBundleCanFail(t *testing.T) {
	dir := t.TempDir()
	spec := server.JobSpec{Targets: []string{"accuracy"}, Scale: 0.01, Seed: 3, Benchmarks: []string{"stream"}}
	ref, err := oneShot(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := oneShot(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBundle(again, ref); err != nil {
		t.Errorf("two one-shot runs of one spec differ: %v", err)
	}
	flipped := append([]byte(nil), ref...)
	flipped[len(flipped)/2] ^= 0x01
	if err := sameBundle(flipped, ref); err == nil {
		t.Error("a bundle with one byte flipped passed the check")
	}
	spec.Seed = 4
	other, err := oneShot(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBundle(other, ref); err == nil {
		t.Error("the bundle of another seed passed the check")
	}
	if !sameFact(0.44772672986822015, 0.4477267298682201) || sameFact(0.4477, 0.4478) || sameFact(1000, 1001) {
		t.Error("sameFact must accept a last-digit float difference and nothing else")
	}
}

func TestVerdict(t *testing.T) {
	st := func(vs ...float64) stat { return newStat("s", vs) }
	cases := []struct {
		name     string
		old, new stat
		want     string
	}{
		{"same", st(1.00, 1.01, 1.02), st(1.01, 1.02, 1.00), verdictSame},
		{"worse", st(1.00, 1.01, 1.02), st(1.30, 1.31, 1.32), verdictWorse},
		{"better", st(1.00, 1.01, 1.02), st(0.80, 0.81, 0.82), verdictBetter},
		{"unresolved", st(1.0, 1.4, 1.8), st(1.1, 1.5, 1.9), verdictUnresolved},
	}
	for _, c := range cases {
		if got := verdict(c.old, c.new, true, 0.10); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
	if got := verdict(st(10, 10.1, 10.2), st(8, 8.1, 8.2), false, 0.10); got != verdictWorse {
		t.Errorf("higher-is-better metric that fell: verdict = %s, want worse", got)
	}
}

// TestCompareRefusesAcrossHosts: a verdict across core counts would be advice
// at best, so -compare gives none.
func TestCompareRefusesAcrossHosts(t *testing.T) {
	dir := t.TempDir()
	rep := suiteReport{Host: hostInfo{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"}, Seed: 1, RunSeconds: 8,
		Workloads: map[string]*workloadReport{"w": {EndToEnd: map[string]stat{"wall_s": newStat("s", []float64{1, 1.01, 1.02})}}}}
	oldPath, newPath := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	if err := writeJSON(oldPath, rep); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(newPath, rep); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	worse, err := compareReports(&out, "../BENCHMARK.json", oldPath, newPath)
	if err != nil || worse || !strings.Contains(out.String(), verdictSame) {
		t.Errorf("identical reports: worse=%v err=%v output:\n%s", worse, err, out.String())
	}
	rep.Host.GOMAXPROCS = 1
	if err := writeJSON(newPath, rep); err != nil {
		t.Fatal(err)
	}
	if _, err := compareReports(&out, "../BENCHMARK.json", oldPath, newPath); err == nil {
		t.Error("reports with different GOMAXPROCS were compared")
	}
}

// TestGoldenCoversEverySeedAndWorkload: the checked-in statistics exist for
// both golden seeds and all workloads.
func TestGoldenCoversEverySeedAndWorkload(t *testing.T) {
	for _, seed := range goldenSeeds {
		g, ok := loadGolden(seed)
		if !ok {
			t.Fatalf("no golden file for seed %d", seed)
		}
		for _, d := range workloadDefs {
			if len(g[d.Name]) == 0 {
				t.Errorf("seed %d: no golden statistics for %s", seed, d.Name)
			}
		}
	}
}
