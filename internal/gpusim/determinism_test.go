package gpusim_test

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"tbpoint/internal/experiments"
	"tbpoint/internal/gpusim"
	"tbpoint/internal/kernel"
	"tbpoint/internal/metrics"
	"tbpoint/internal/sampling"
	"tbpoint/internal/trace"
	"tbpoint/internal/workloads"
)

// goldenCases are the sweep's "config/bench" names: five benchmarks
// spanning regular, irregular, launch-heavy and memory-bound shapes, under
// the default and a retargeted occupancy configuration, at workload scale
// 0.05, seed 7. What each case simulated is recorded in goldenMetricsPath.
var goldenCases = []string{"default/cfd", "default/mst", "default/stream", "default/lbm", "default/kmeans",
	"occ16x8/cfd", "occ16x8/mst", "occ16x8/stream", "occ16x8/lbm", "occ16x8/kmeans"}

// goldenCase builds a simulator of the named case's configuration, its
// application, and the sampling-unit size of the default unit-size rule.
func goldenCase(t *testing.T, name string) (*gpusim.Simulator, *kernel.App, int64) {
	t.Helper()
	config, bench, _ := strings.Cut(name, "/")
	spec, err := workloads.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	app := spec.Build(workloads.Config{Scale: 0.05, Seed: 7})
	cfg := gpusim.DefaultConfig()
	if config == "occ16x8" {
		cfg = cfg.WithOccupancy(16, 8)
	}
	return gpusim.MustNew(cfg), app, experiments.DefaultOptions(0.05).UnitSize(app.TotalWarpInsts())
}

// runGolden runs the named case's reference simulation the way every cell
// of the harness does, through experiments.FullAppMetrics, so the goldens
// pin the launch fan-out and the launch-order collector merge together with
// the simulator.
func runGolden(t *testing.T, name string, mc *metrics.Collector) *sampling.AppRun {
	t.Helper()
	sim, app, unit := goldenCase(t, name)
	return experiments.FullAppMetrics(sim, app, unit, mc)
}

// goldenRecord is one case of goldenMetricsPath: every counter and
// distribution of the sweep's metrics snapshot (no wall-clock phases), so an
// instrumentation bug that double-counts without shifting IPC still fails,
// and the two LaunchResult aggregates no counter holds.
type goldenRecord struct {
	metrics.Snapshot
	Units      int `json:"units"`
	FixedUnits int `json:"fixed_units"`
}

const goldenMetricsPath = "testdata/golden_metrics.json"

var update = flag.Bool("update", false, "rewrite "+goldenMetricsPath+" from this run instead of checking it")

// diffGoldenMetrics names every divergence between the golden file's cases
// and a run's: a case only one side has, and per case each counter and
// distribution whose values differ (absent reads as zero) and each unit
// count that differs.
func diffGoldenMetrics(want, got map[string]*goldenRecord) []string {
	var diffs []string
	for _, name := range unionKeys(want, got) {
		w, inGolden := want[name]
		g, inRun := got[name]
		if !inGolden {
			diffs = append(diffs, fmt.Sprintf("%s: present in run, missing from golden", name))
			continue
		}
		if !inRun {
			diffs = append(diffs, fmt.Sprintf("%s: present in golden, missing from run", name))
			continue
		}
		for _, k := range unionKeys(w.Counters, g.Counters) {
			if w.Counters[k] != g.Counters[k] {
				diffs = append(diffs, fmt.Sprintf("%s: counter %s = %d, golden %d", name, k, g.Counters[k], w.Counters[k]))
			}
		}
		for _, k := range unionKeys(w.Dists, g.Dists) {
			if w.Dists[k] != g.Dists[k] {
				diffs = append(diffs, fmt.Sprintf("%s: dist %s = %+v, golden %+v", name, k, g.Dists[k], w.Dists[k]))
			}
		}
		if w.Units != g.Units || w.FixedUnits != g.FixedUnits {
			diffs = append(diffs, fmt.Sprintf("%s: units = %d, fixed_units = %d, golden %d, %d", name, g.Units, g.FixedUnits, w.Units, w.FixedUnits))
		}
	}
	return diffs
}

func unionKeys[V any](a, b map[string]V) []string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, dup := a[k]; !dup {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// TestGoldenCounters locks the simulator to its recorded behaviour. The
// values were first recorded from the original per-cycle scan-all-SMs
// scheduler (runScan keeps that loop as a test-only reference); the
// next-event scheduler and every optimisation since reproduce them
// bit-identically. Each case runs once, with a live collector: every
// counter that repeats a LaunchResult aggregate must equal it, and the case
// is held to its record in goldenMetricsPath.
//
//	go test ./internal/gpusim ./internal/experiments -run 'TestGoldenCounters|TestDefaultReportGolden' -update
//
// re-records this file and the experiments package's default report; do
// that only for an intentional, documented behaviour change.
func TestGoldenCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is a few seconds; skipped in -short")
	}
	var mu sync.Mutex
	got := map[string]*goldenRecord{}
	// A parent's cleanup runs once its parallel subtests have all finished.
	t.Cleanup(func() { checkGoldenMetrics(t, got) })
	for _, name := range goldenCases {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			mc := metrics.New()
			run := runGolden(t, name, mc)
			rec := &goldenRecord{Snapshot: mc.Snapshot()}
			rec.Phases = nil
			sum := map[metrics.Counter]int64{}
			for _, r := range run.Launches {
				sum[metrics.SimCycles] += r.Cycles
				sum[metrics.SimWarpInsts] += r.SimulatedWarpInsts
				sum[metrics.MemL1Misses] += r.L1Misses
				sum[metrics.MemL2Misses] += r.L2Misses
				sum[metrics.MemDRAMAccesses] += r.DRAMAccesses
				sum[metrics.MemDRAMRowHits] += r.DRAMRowHits
				sum[metrics.MemWritebacks] += r.Writebacks
				sum[metrics.MemMSHRMerges] += r.MSHRMerges
				sum[metrics.SchedTBDispatch] += int64(r.SimulatedTBs)
				rec.Units += len(r.Units)
				rec.FixedUnits += len(r.FixedUnits)
			}
			for id := range metrics.Counter(metrics.NumCounters) {
				if want, tied := sum[id]; tied && mc.Count(id) != uint64(want) {
					t.Errorf("counter %s = %d, LaunchResult says %d", id.Name(), mc.Count(id), want)
				}
			}
			mu.Lock()
			got[name] = rec
			mu.Unlock()
		})
	}
}

// checkGoldenMetrics holds the cases that ran to goldenMetricsPath, or under
// -update rewrites it from them. It runs as a cleanup, where FailNow's output
// is lost, so failures are Errorf + return.
func checkGoldenMetrics(t *testing.T, got map[string]*goldenRecord) {
	if *update {
		if err := writeGoldenMetrics(goldenMetricsPath, got, t.Failed()); err != nil {
			t.Error(err)
		}
		return
	}
	var want map[string]*goldenRecord
	data, err := os.ReadFile(goldenMetricsPath)
	if err == nil {
		err = json.Unmarshal(data, &want)
	}
	if err != nil {
		t.Errorf("%s: %v (record it with -update)", goldenMetricsPath, err)
		return
	}
	if len(got) != len(goldenCases) { // -run selected some subtests
		for name := range want {
			if _, ran := got[name]; !ran {
				delete(want, name)
			}
		}
	}
	for _, d := range diffGoldenMetrics(want, got) {
		t.Error(d)
	}
}

// writeGoldenMetrics records got at path, unless the sweep ran only some
// cases or a case failed: then it writes nothing and says why.
func writeGoldenMetrics(path string, got map[string]*goldenRecord, failed bool) error {
	switch {
	case failed:
		return fmt.Errorf("-update: a case failed, %s not written", path)
	case len(got) != len(goldenCases):
		return fmt.Errorf("-update needs the whole sweep, ran %d of %d cases", len(got), len(goldenCases))
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// TestDiffGoldenMetrics pins what the golden gate reports: each kind of
// divergence, by case and by counter, distribution or unit count.
func TestDiffGoldenMetrics(t *testing.T) {
	base := func() map[string]*goldenRecord {
		return map[string]*goldenRecord{
			"default/cfd": {Snapshot: metrics.Snapshot{
				Counters: map[string]uint64{"sim.cycles": 10, "sim.warp_insts": 20},
				Dists:    map[string]metrics.DistSnapshot{"mem.dram_queue_wait": {Count: 2, Sum: 6, Min: 1, Max: 5}},
			}, Units: 4, FixedUnits: 8},
			"occ16x8/mst": {Snapshot: metrics.Snapshot{Counters: map[string]uint64{"sim.cycles": 7}}},
		}
	}
	cases := []struct {
		name   string
		mutate func(want, got map[string]*goldenRecord)
		diff   string
	}{
		{"identical", func(want, got map[string]*goldenRecord) {}, ""},
		{"case missing from file", func(want, got map[string]*goldenRecord) { delete(want, "occ16x8/mst") },
			"occ16x8/mst: present in run, missing from golden"},
		{"case missing from run", func(want, got map[string]*goldenRecord) { delete(got, "default/cfd") },
			"default/cfd: present in golden, missing from run"},
		{"one counter off", func(want, got map[string]*goldenRecord) { got["default/cfd"].Counters["sim.warp_insts"] = 21 },
			"default/cfd: counter sim.warp_insts = 21, golden 20"},
		{"counter only in run", func(want, got map[string]*goldenRecord) { got["occ16x8/mst"].Counters["mem.l1_misses"] = 3 },
			"occ16x8/mst: counter mem.l1_misses = 3, golden 0"},
		{"one dist off", func(want, got map[string]*goldenRecord) {
			got["default/cfd"].Dists["mem.dram_queue_wait"] = metrics.DistSnapshot{Count: 2, Sum: 6, Min: 1, Max: 4}
		}, "default/cfd: dist mem.dram_queue_wait = {Count:2 Sum:6 Min:1 Max:4}, golden {Count:2 Sum:6 Min:1 Max:5}"},
		{"one unit count off", func(want, got map[string]*goldenRecord) { got["default/cfd"].FixedUnits = 7 },
			"default/cfd: units = 4, fixed_units = 7, golden 4, 8"},
	}
	for _, c := range cases {
		want, got := base(), base()
		c.mutate(want, got)
		diffs := diffGoldenMetrics(want, got)
		if c.diff == "" && len(diffs) != 0 {
			t.Errorf("%s: reported %q", c.name, diffs)
		}
		if c.diff != "" && (len(diffs) != 1 || diffs[0] != c.diff) {
			t.Errorf("%s: reported %q, want exactly %q", c.name, diffs, c.diff)
		}
	}
}

// TestGoldenUpdateWritesNothingOnFailure: -update records only a whole
// sweep in which every case passed.
func TestGoldenUpdateWritesNothingOnFailure(t *testing.T) {
	whole := map[string]*goldenRecord{}
	for _, name := range goldenCases {
		whole[name] = &goldenRecord{}
	}
	path := filepath.Join(t.TempDir(), "golden.json")
	failed, partial := writeGoldenMetrics(path, whole, true), writeGoldenMetrics(path, map[string]*goldenRecord{}, false)
	if _, err := os.Stat(path); failed == nil || partial == nil || !errors.Is(err, os.ErrNotExist) {
		t.Errorf("-update after a failed case (%v) or a partial sweep (%v) wrote %s (stat: %v)", failed, partial, path, err)
	}
}

// TestRunLaunchRepeatable pins run-to-run determinism on one simulator
// instance (arena reuse across RunLaunch calls must not leak state). mst is
// irregular and exercises MSHR merges.
func TestRunLaunchRepeatable(t *testing.T) {
	sim, app, unit := goldenCase(t, "default/mst")
	if a, b := experiments.FullApp(sim, app, unit), experiments.FullApp(sim, app, unit); !reflect.DeepEqual(a, b) {
		t.Error("two identical runs on one simulator diverged")
	}
}

// TestMetricsCollectionIsObservationOnly pins the metrics layer's core
// contract: a run with a live collector produces the same AppRun as one
// without, and the issue breakdown partitions the issued instructions.
// mst exercises MSHR merges and long idle jumps; lbm is memory-bound (DRAM
// queueing, writebacks).
func TestMetricsCollectionIsObservationOnly(t *testing.T) {
	for _, name := range []string{"default/mst", "default/lbm"} {
		mc := metrics.New()
		on := runGolden(t, name, mc)
		if off := runGolden(t, name, nil); !reflect.DeepEqual(on, off) {
			t.Errorf("%s: metrics collection changed simulation results", name)
		}
		sum := mc.Count(metrics.SimIssueALU) + mc.Count(metrics.SimIssueMem) +
			mc.Count(metrics.SimIssueBar) + mc.Count(metrics.SimIssueExit)
		if sum != uint64(on.TotalInsts()) {
			t.Errorf("%s: issue breakdown sums to %d, want %d insts", name, sum, on.TotalInsts())
		}
	}
}

// TestMSHRTableSizedByOutstanding: after every distinct launch of the
// golden sweep, run back to back on one recycled arena, each SM's MSHR
// table (index plus entries) holds at most 16 KB — it is sized by the fills
// outstanding in the launch, not by what earlier launches left behind.
func TestMSHRTableSizedByOutstanding(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is a few seconds; skipped in -short")
	}
	const limit = 16 << 10
	for _, name := range goldenCases {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sim, app, unit := goldenCase(t, name)
			var distinct []*kernel.Launch
			for _, l := range app.Launches {
				if !slices.ContainsFunc(distinct, func(d *kernel.Launch) bool { return trace.SameInput(d, l) }) {
					distinct = append(distinct, l)
				}
			}
			for i, b := range gpusim.MSHRFootprints(sim, gpusim.RunOptions{FixedUnitInsts: unit}, distinct) {
				if b > limit {
					t.Errorf("distinct launch %d: an SM's MSHR table holds %d bytes, want at most %d", i, b, limit)
				}
			}
		})
	}
}
