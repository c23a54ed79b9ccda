package experiments

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"tbpoint/internal/gpusim"
	"tbpoint/internal/workloads"
)

// TestFullAppFanOutDeterministic pins the launch fan-out to the
// sequential result: the full-app reference simulation must be
// deep-equal — every counter, unit and BBV — no matter how many workers
// run the launches. kmeans fans out only its two distinct launches (the
// other 28 reuse them); sssp's 49 launches are all distinct, so every one
// of them is a fan-out task.
func TestFullAppFanOutDeterministic(t *testing.T) {
	sim := gpusim.MustNew(gpusim.DefaultConfig())
	old := Parallelism
	defer func() { Parallelism = old }()
	for name, simulated := range map[string]int{"kmeans": 2, "sssp": 49} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		app := spec.Build(workloads.Config{Scale: 0.02, Seed: 3})

		Parallelism = 1
		ref, n := fullApp(nil, sim, app, 2000, nil, 0, 0)
		if n != simulated {
			t.Fatalf("%s: %d of %d launches simulated, want %d", name, n, len(app.Launches), simulated)
		}

		for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
			Parallelism = workers
			got := FullApp(sim, app, 2000)
			if len(got.Launches) != len(ref.Launches) {
				t.Fatalf("%s workers=%d: %d launches, want %d", name, workers, len(got.Launches), len(ref.Launches))
			}
			for i := range ref.Launches {
				if !reflect.DeepEqual(got.Launches[i], ref.Launches[i]) {
					t.Errorf("%s workers=%d: launch %d differs from sequential run", name, workers, i)
				}
			}
		}
	}
}

// TestFullAppParallelAgreesWithSerial bounds what gpusim's epoch-parallel
// engine may change when reached through FullAppParallel at the default
// quantum: per launch, the simulated work is exactly the serial loop's and
// the cycle count drifts by at most 5%; the worker count changes nothing.
func TestFullAppParallelAgreesWithSerial(t *testing.T) {
	sim := gpusim.MustNew(gpusim.DefaultConfig())
	for _, name := range []string{"stream", "black", "cfd"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		app := spec.Build(workloads.Config{Scale: 0.02, Seed: 7})
		unit := DefaultOptions(0.02).UnitSize(app.TotalWarpInsts())
		serial := FullApp(sim, app, unit)
		par2 := FullAppParallel(sim, app, unit, 2, 0)
		par8 := FullAppParallel(sim, app, unit, 8, 0)
		if serial.Aborted || par2.Aborted {
			t.Fatalf("%s: run aborted without a context", name)
		}
		if !reflect.DeepEqual(par2, par8) {
			t.Errorf("%s: 2 and 8 workers give different runs", name)
		}
		for i, sl := range serial.Launches {
			pl := par2.Launches[i]
			if pl.SimulatedWarpInsts != sl.SimulatedWarpInsts || pl.SimulatedTBs != sl.SimulatedTBs {
				t.Errorf("%s launch %d: parallel simulated %d insts / %d TBs, serial %d / %d", name, i,
					pl.SimulatedWarpInsts, pl.SimulatedTBs, sl.SimulatedWarpInsts, sl.SimulatedTBs)
			}
			if div := math.Abs(float64(pl.Cycles-sl.Cycles)) / float64(sl.Cycles); div > 0.05 {
				t.Errorf("%s launch %d: %d parallel vs %d serial cycles, divergence %.4f > 0.05",
					name, i, pl.Cycles, sl.Cycles, div)
			}
		}
	}
}

// TestRetargetParallelDeterministic pins the representative-simulation
// fan-out inside core.Retarget (reached through RunBenchmark) to the
// sequential estimates.
func TestRetargetParallelDeterministic(t *testing.T) {
	opts := fastOpts()
	opts.Benchmarks = []string{"kmeans"}

	old := Parallelism
	defer func() { Parallelism = old }()

	run := func(workers int) *BenchResult {
		Parallelism = workers
		spec, err := workloads.ByName("kmeans")
		if err != nil {
			t.Fatal(err)
		}
		r, err := RunBenchmark(spec, gpusim.DefaultConfig(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ref := run(1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got := run(workers)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d: result differs from sequential\n got: %+v\nwant: %+v",
				workers, got, ref)
		}
	}
}

// TestForEachIndexedLowestIndexError verifies the deterministic-error
// contract: with several failing indices, the lowest one's error is the
// one returned, under both sequential and parallel execution.
func TestForEachIndexedLowestIndexError(t *testing.T) {
	old := Parallelism
	defer func() { Parallelism = old }()
	for _, workers := range []int{1, 4} {
		Parallelism = workers
		for trial := 0; trial < 10; trial++ {
			err := forEachIndexed(nil, 16, func(i int) error {
				if i%5 == 2 { // fails at 2, 7, 12
					return fmt.Errorf("cell %d failed", i)
				}
				return nil
			})
			if err == nil || err.Error() != "cell 2 failed" {
				t.Fatalf("workers=%d: got %v, want error from index 2", workers, err)
			}
		}
	}
}
