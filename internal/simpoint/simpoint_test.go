package simpoint

import (
	"math"
	"reflect"
	"testing"

	"tbpoint/internal/gpusim"
	"tbpoint/internal/isa"
	"tbpoint/internal/kernel"
	"tbpoint/internal/sampling"
)

// twoPhaseApp builds an app whose launches alternate between a
// compute-heavy and a memory-heavy kernel, so BBV clustering has two clear
// phases to find.
func twoPhaseApp(pairs, blocks int) *kernel.App {
	compute := isa.NewBuilder("c").
		Block(isa.IALU()).
		LoopBlocks(0, isa.Cat(isa.Rep(isa.FALU(), 5), isa.Branch())...).
		EndBlock().
		Build()
	memory := isa.NewBuilder("m").
		Block(isa.IALU()).
		LoopBlocks(0, isa.Load(2, 1, 128), isa.IALU(), isa.Branch()).
		EndBlock().
		Build()
	kc := &kernel.Kernel{Name: "c", Program: compute, ThreadsPerBlock: 64}
	km := &kernel.Kernel{Name: "m", Program: memory, ThreadsPerBlock: 64}
	app := &kernel.App{Name: "twophase"}
	for i := 0; i < pairs; i++ {
		for _, k := range []*kernel.Kernel{kc, km} {
			params := make([]kernel.TBParams, blocks)
			for b := range params {
				params[b] = kernel.TBParams{Trips: []int{8}, ActiveFrac: 1,
					Seed: uint64(i*blocks+b+1) * 3}
			}
			app.Launches = append(app.Launches,
				kernel.NewLaunch(k, len(app.Launches), params))
		}
	}
	return app
}

func fullRun(t *testing.T, app *kernel.App, unitInsts int64) *sampling.AppRun {
	t.Helper()
	cfg := gpusim.DefaultConfig()
	cfg.NumSMs = 2
	sim := gpusim.MustNew(cfg)
	run := &sampling.AppRun{}
	for _, l := range app.Launches {
		run.Launches = append(run.Launches,
			sim.RunLaunch(l, gpusim.RunOptions{FixedUnitInsts: unitInsts}))
	}
	return run
}

func TestRunFindsPhases(t *testing.T) {
	run := fullRun(t, twoPhaseApp(4, 150), 2000)
	res := Run(run, DefaultOptions())
	if res.K < 2 {
		t.Errorf("K = %d, want >= 2 (two program phases)", res.K)
	}
	if len(res.Points) != res.K {
		t.Errorf("%d points for %d clusters", len(res.Points), res.K)
	}
	est := res.Estimate
	if est.PredictedIPC <= 0 {
		t.Fatal("no prediction")
	}
	if e := est.Error(run); e > 0.25 {
		t.Errorf("Ideal-Simpoint error %.1f%%", e*100)
	}
	if est.SampleSize <= 0 || est.SampleSize > 0.9 {
		t.Errorf("sample size %.3f", est.SampleSize)
	}
}

func TestSimpointBeatsNothingOnHomogeneous(t *testing.T) {
	// On a homogeneous app SimPoint should use very few clusters and still
	// be accurate.
	run := fullRun(t, twoPhaseApp(1, 40), 400)
	res := Run(run, DefaultOptions())
	if e := res.Estimate.Error(run); e > 0.3 {
		t.Errorf("error %.1f%%", e*100)
	}
}

func TestRunEmpty(t *testing.T) {
	res := Run(&sampling.AppRun{}, DefaultOptions())
	if res.K != 0 || res.Estimate.PredictedIPC != 0 {
		t.Error("empty run should give empty result")
	}
}

func TestRunWithoutBBV(t *testing.T) {
	// Units without BBVs degrade to a single cluster rather than crashing.
	cfg := gpusim.DefaultConfig()
	cfg.NumSMs = 2
	sim := gpusim.MustNew(cfg)
	app := twoPhaseApp(1, 40)
	run := &sampling.AppRun{}
	for _, l := range app.Launches {
		res := sim.RunLaunch(l, gpusim.RunOptions{FixedUnitInsts: 400})
		for i := range res.FixedUnits {
			res.FixedUnits[i].BBV = nil
		}
		run.Launches = append(run.Launches, res)
	}
	res := Run(run, DefaultOptions())
	if res.Estimate.PredictedIPC <= 0 {
		t.Error("BBV-less run should still predict")
	}
}

func TestNormalizeBBV(t *testing.T) {
	u := gpusim.FixedUnit{WarpInsts: 10, BBV: []int64{4, 6}}
	v := normalizeBBV(u, 3)
	if v[0] != 0.4 || v[1] != 0.6 || v[2] != 0 {
		t.Errorf("normalizeBBV = %v", v)
	}
	empty := normalizeBBV(gpusim.FixedUnit{}, 2)
	if empty[0] != 0 || empty[1] != 0 {
		t.Error("empty unit should normalise to zeros")
	}
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if o.MaxK != 30 || o.BICFrac != 0.9 {
		t.Errorf("DefaultOptions = %+v", o)
	}
}

// TestRunRepeatable pins the prediction's bits: cluster cycles are summed
// (and Points appended) in ascending cluster id, so repeated calls on one
// AppRun agree exactly. Float addition is not associative, so with three or
// more clusters a map-order sum differs in the last digit run to run.
func TestRunRepeatable(t *testing.T) {
	run := fullRun(t, twoPhaseApp(4, 150), 2000)
	opts := DefaultOptions()
	opts.BICFrac = 1 // the best-scoring k, so there are enough clusters to reorder
	ref := Run(run, opts)
	if ref.K < 3 {
		t.Fatalf("K = %d, need >= 3 clusters for summation order to matter", ref.K)
	}
	for i := 0; i < 50; i++ {
		got := Run(run, opts)
		if math.Float64bits(got.Estimate.PredictedCycles) != math.Float64bits(ref.Estimate.PredictedCycles) {
			t.Fatalf("call %d: PredictedCycles %v, first call %v", i, got.Estimate.PredictedCycles, ref.Estimate.PredictedCycles)
		}
		if !reflect.DeepEqual(got.Points, ref.Points) {
			t.Fatalf("call %d: Points %v, first call %v", i, got.Points, ref.Points)
		}
	}
}
