package gpusim_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"testing"

	"tbpoint/internal/experiments"
	"tbpoint/internal/gpusim"
	"tbpoint/internal/kernel"
	"tbpoint/internal/metrics"
	"tbpoint/internal/trace"
	"tbpoint/internal/workloads"
)

// goldenRow is the aggregate counter signature of one benchmark under one
// configuration: every counter the simulator exposes, summed over the app's
// launches. Any scheduler or memory-system change that alters simulated
// behaviour — even a reordering of same-cycle issue — shifts at least one
// of these.
type goldenRow struct {
	config, bench string

	cycles, insts, l1m, l2m, dram, rowh, wb, merges int64
	units, fixed, tbs                               int
}

// goldenRows pins the simulator's observable behaviour at workload scale
// 0.05, seed 7. The values were recorded from the original per-cycle
// scan-all-SMs scheduler (runScan keeps that loop as a test-only
// reference); the next-event scheduler (and every optimisation since)
// must reproduce them bit-identically. Do NOT update
// these numbers to make a failing test pass unless the change is an
// intentional, documented behaviour change.
var goldenRows = []goldenRow{
	{"default", "cfd", 805900, 1680000, 380000, 380000, 380000, 24500, 91600, 0, 100, 400, 2500},
	{"default", "mst", 145644, 32208, 46018, 45886, 45886, 455, 60, 2, 24, 31, 173},
	{"default", "stream", 1844203, 798560, 451260, 450493, 450493, 1168, 61, 12, 217, 434, 868},
	{"default", "lbm", 1421960, 3110400, 1296960, 1296940, 1678740, 15580, 800180, 0, 100, 400, 5400},
	{"default", "kmeans", 393150, 2653920, 302640, 302640, 302670, 950, 13640, 0, 50, 410, 2910},
	{"occ16x8", "cfd", 1349200, 1680000, 380000, 380000, 380000, 47300, 129500, 0, 200, 400, 2500},
	{"occ16x8", "mst", 147475, 32208, 46018, 45885, 45886, 461, 143, 2, 24, 31, 173},
	{"occ16x8", "stream", 1844203, 798560, 451260, 450493, 450493, 1168, 61, 12, 217, 434, 868},
	{"occ16x8", "lbm", 3235320, 3110400, 1296000, 1296000, 1683540, 24120, 811580, 0, 340, 400, 5400},
	{"occ16x8", "kmeans", 1076640, 2653920, 302640, 302640, 306910, 120550, 23600, 0, 180, 410, 2910},
}

func goldenConfig(name string) gpusim.Config {
	if name == "occ16x8" {
		return gpusim.DefaultConfig().WithOccupancy(16, 8)
	}
	return gpusim.DefaultConfig()
}

func runGolden(t *testing.T, row goldenRow) goldenRow {
	return runGoldenMetrics(t, row, nil)
}

// runGoldenMetrics runs row's reference simulation the way every cell of the
// harness does — experiments.FullAppMetrics at the default unit-size rule —
// so the goldens pin the launch fan-out and the launch-order collector merge
// together with the simulator.
func runGoldenMetrics(t *testing.T, row goldenRow, mc *metrics.Collector) goldenRow {
	t.Helper()
	spec, err := workloads.ByName(row.bench)
	if err != nil {
		t.Fatal(err)
	}
	app := spec.Build(workloads.Config{Scale: 0.05, Seed: 7})
	sim := gpusim.MustNew(goldenConfig(row.config))
	got := goldenRow{config: row.config, bench: row.bench}
	unit := experiments.DefaultOptions(0.05).UnitSize(app.TotalWarpInsts())
	for _, r := range experiments.FullAppMetrics(sim, app, unit, mc).Launches {
		got.cycles += r.Cycles
		got.insts += r.SimulatedWarpInsts
		got.l1m += r.L1Misses
		got.l2m += r.L2Misses
		got.dram += r.DRAMAccesses
		got.rowh += r.DRAMRowHits
		got.wb += r.Writebacks
		got.merges += r.MSHRMerges
		got.units += len(r.Units)
		got.fixed += len(r.FixedUnits)
		got.tbs += r.SimulatedTBs
	}
	return got
}

// goldenMetricsPath holds, per config/bench case, the deterministic part of
// the sweep's metrics snapshot: every counter and distribution, no wall-clock
// phases. goldenRows pins the LaunchResult aggregates; this file pins the
// whole internal/metrics counter set (issue breakdown, scheduler events,
// MSHR/DRAM distributions), so an instrumentation bug that double-counts
// without shifting IPC still fails.
const goldenMetricsPath = "testdata/golden_metrics.json"

var update = flag.Bool("update", false, "rewrite "+goldenMetricsPath+" from this run instead of checking it")

// diffGoldenMetrics names every divergence between the golden file's cases
// and a run's: a case only one side has, and per case each counter and
// distribution whose values differ (absent reads as zero).
func diffGoldenMetrics(want, got map[string]metrics.Snapshot) []string {
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

// TestGoldenCounters locks the simulator to the recorded pre-event-loop
// behaviour: five benchmarks spanning regular, irregular, launch-heavy and
// memory-bound shapes, under the default and a retargeted occupancy
// configuration. Each case runs once, with a live collector, and is held to
// both goldenRows and goldenMetricsPath.
//
//	go test ./internal/gpusim -run TestGoldenCounters -update
//
// rewrites the file; do that only for an intentional, documented behaviour
// change.
func TestGoldenCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is a few seconds; skipped in -short")
	}
	var mu sync.Mutex
	got := map[string]metrics.Snapshot{}
	// A parent's cleanup runs once its parallel subtests have all finished.
	t.Cleanup(func() { checkGoldenMetrics(t, got) })
	for _, row := range goldenRows {
		row := row
		name := row.config + "/" + row.bench
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			mc := metrics.New()
			if got := runGoldenMetrics(t, row, mc); got != row {
				t.Errorf("counters diverged from golden\n got: %+v\nwant: %+v", got, row)
			}
			snap := mc.Snapshot()
			snap.Phases = nil
			mu.Lock()
			got[name] = snap
			mu.Unlock()
		})
	}
}

// checkGoldenMetrics holds the cases that ran to goldenMetricsPath, or under
// -update rewrites it from them. It runs as a cleanup, where FailNow's output
// is lost, so failures are Errorf + return.
func checkGoldenMetrics(t *testing.T, got map[string]metrics.Snapshot) {
	filtered := len(got) != len(goldenRows) // -run selected some subtests
	if *update {
		if filtered {
			t.Errorf("-update needs the whole sweep, ran %d of %d cases", len(got), len(goldenRows))
			return
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err == nil {
			err = os.WriteFile(goldenMetricsPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			t.Error(err)
		}
		return
	}
	var want map[string]metrics.Snapshot
	data, err := os.ReadFile(goldenMetricsPath)
	if err == nil {
		err = json.Unmarshal(data, &want)
	}
	if err != nil {
		t.Errorf("%s: %v (record it with -update)", goldenMetricsPath, err)
		return
	}
	if filtered {
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

// TestDiffGoldenMetrics pins what the golden gate reports: each kind of
// divergence, by case and by counter or distribution name.
func TestDiffGoldenMetrics(t *testing.T) {
	base := func() map[string]metrics.Snapshot {
		return map[string]metrics.Snapshot{
			"default/cfd": {
				Counters: map[string]uint64{"sim.cycles": 10, "sim.warp_insts": 20},
				Dists:    map[string]metrics.DistSnapshot{"mem.mshr_occupancy": {Count: 2, Sum: 6, Min: 1, Max: 5}},
			},
			"occ16x8/mst": {Counters: map[string]uint64{"sim.cycles": 7}},
		}
	}
	cases := []struct {
		name   string
		mutate func(want, got map[string]metrics.Snapshot)
		diff   string
	}{
		{"identical", func(want, got map[string]metrics.Snapshot) {}, ""},
		{"case missing from file", func(want, got map[string]metrics.Snapshot) { delete(want, "occ16x8/mst") },
			"occ16x8/mst: present in run, missing from golden"},
		{"case missing from run", func(want, got map[string]metrics.Snapshot) { delete(got, "default/cfd") },
			"default/cfd: present in golden, missing from run"},
		{"one counter off", func(want, got map[string]metrics.Snapshot) { got["default/cfd"].Counters["sim.warp_insts"] = 21 },
			"default/cfd: counter sim.warp_insts = 21, golden 20"},
		{"counter only in run", func(want, got map[string]metrics.Snapshot) { got["occ16x8/mst"].Counters["mem.l1_misses"] = 3 },
			"occ16x8/mst: counter mem.l1_misses = 3, golden 0"},
		{"one dist off", func(want, got map[string]metrics.Snapshot) {
			got["default/cfd"].Dists["mem.mshr_occupancy"] = metrics.DistSnapshot{Count: 2, Sum: 6, Min: 1, Max: 4}
		}, "default/cfd: dist mem.mshr_occupancy = {Count:2 Sum:6 Min:1 Max:4}, golden {Count:2 Sum:6 Min:1 Max:5}"},
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

// TestRunLaunchRepeatable pins run-to-run determinism on one simulator
// instance (arena reuse across RunLaunch calls must not leak state).
func TestRunLaunchRepeatable(t *testing.T) {
	row := goldenRows[1] // mst: irregular, exercises MSHR merges
	a := runGolden(t, row)
	b := runGolden(t, row)
	if a != b {
		t.Errorf("two identical runs diverged:\n  %+v\n  %+v", a, b)
	}
}

// TestMetricsCollectionIsObservationOnly pins the metrics layer's core
// contract: a run with a live collector produces bit-identical simulation
// results to one without, and the collector's counters agree with the
// LaunchResult aggregates the goldens pin. mst exercises MSHR merges and
// long idle jumps; lbm is memory-bound (DRAM queueing, writebacks).
func TestMetricsCollectionIsObservationOnly(t *testing.T) {
	for _, row := range []goldenRow{goldenRows[1], goldenRows[3]} {
		mc := metrics.New()
		on := runGoldenMetrics(t, row, mc)
		off := runGolden(t, row)
		if on != off {
			t.Errorf("%s/%s: metrics collection changed simulation results\n  on: %+v\n off: %+v",
				row.config, row.bench, on, off)
		}
		checks := []struct {
			name string
			id   metrics.Counter
			want int64
		}{
			{"sim.cycles", metrics.SimCycles, on.cycles},
			{"sim.warp_insts", metrics.SimWarpInsts, on.insts},
			{"mem.l1_misses", metrics.MemL1Misses, on.l1m},
			{"mem.l2_misses", metrics.MemL2Misses, on.l2m},
			{"mem.dram_accesses", metrics.MemDRAMAccesses, on.dram},
			{"mem.dram_row_hits", metrics.MemDRAMRowHits, on.rowh},
			{"mem.writebacks", metrics.MemWritebacks, on.wb},
			{"mem.mshr_merges", metrics.MemMSHRMerges, on.merges},
			{"sched.tb_dispatch", metrics.SchedTBDispatch, int64(on.tbs)},
		}
		for _, c := range checks {
			if got := mc.Count(c.id); got != uint64(c.want) {
				t.Errorf("%s/%s: counter %s = %d, LaunchResult says %d",
					row.config, row.bench, c.name, got, c.want)
			}
		}
		// The issue breakdown must partition the issued instructions.
		sum := mc.Count(metrics.SimIssueALU) + mc.Count(metrics.SimIssueMem) +
			mc.Count(metrics.SimIssueBar) + mc.Count(metrics.SimIssueExit)
		if sum != uint64(on.insts) {
			t.Errorf("%s/%s: issue breakdown sums to %d, want %d insts",
				row.config, row.bench, sum, on.insts)
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
	for _, row := range goldenRows {
		row := row
		t.Run(row.config+"/"+row.bench, func(t *testing.T) {
			t.Parallel()
			spec, err := workloads.ByName(row.bench)
			if err != nil {
				t.Fatal(err)
			}
			app := spec.Build(workloads.Config{Scale: 0.05, Seed: 7})
			unit := experiments.DefaultOptions(0.05).UnitSize(app.TotalWarpInsts())
			var distinct []*kernel.Launch
			for _, l := range app.Launches {
				if !slices.ContainsFunc(distinct, func(d *kernel.Launch) bool { return trace.SameInput(d, l) }) {
					distinct = append(distinct, l)
				}
			}
			sim := gpusim.MustNew(goldenConfig(row.config))
			for i, b := range gpusim.MSHRFootprints(sim, gpusim.RunOptions{FixedUnitInsts: unit}, distinct) {
				if b > limit {
					t.Errorf("distinct launch %d: an SM's MSHR table holds %d bytes, want at most %d", i, b, limit)
				}
			}
		})
	}
}
