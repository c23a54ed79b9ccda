package sampler

import (
	"testing"

	"tbpoint/internal/gpusim"
	"tbpoint/internal/isa"
	"tbpoint/internal/kernel"
	"tbpoint/internal/sampling"
)

// testApp and fullRun build a small homogeneous app and its full run on two
// SMs, the simulated fixture of the Random and Systematic tests.
func testApp(launches, blocks int) *kernel.App {
	prog := isa.NewBuilder("t").
		Block(isa.IALU()).
		LoopBlocks(0, isa.Load(2, 1, 128), isa.FALU(), isa.IALU(), isa.Branch()).
		EndBlock(isa.Store(1, 2, 128)).
		Build()
	k := &kernel.Kernel{Name: "t", Program: prog, ThreadsPerBlock: 64}
	app := &kernel.App{Name: "t"}
	for li := 0; li < launches; li++ {
		params := make([]kernel.TBParams, blocks)
		for i := range params {
			params[i] = kernel.TBParams{Trips: []int{6}, ActiveFrac: 1, Seed: uint64(li*blocks + i + 1)}
		}
		app.Launches = append(app.Launches, kernel.NewLaunch(k, li, params))
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

func TestRandomEstimate(t *testing.T) {
	run := fullRun(t, testApp(3, 80), 400)
	est, _ := Random(run, 0.10, 42)
	if est.Technique != "Random" {
		t.Error("technique label")
	}
	if est.PredictedIPC <= 0 {
		t.Fatal("no prediction")
	}
	// Sample size should be near 10%.
	if est.SampleSize < 0.02 || est.SampleSize > 0.3 {
		t.Errorf("sample size %.3f far from 0.10", est.SampleSize)
	}
	// For a homogeneous app, even random sampling is accurate.
	if e := est.Error(run); e > 0.25 {
		t.Errorf("error %.1f%% too high for homogeneous app", e*100)
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	run := fullRun(t, testApp(2, 60), 400)
	a, _ := Random(run, 0.1, 7)
	b, _ := Random(run, 0.1, 7)
	if a.PredictedIPC != b.PredictedIPC || a.SampleSize != b.SampleSize {
		t.Error("same-seed Random diverged")
	}
}

func TestRandomEmptyRun(t *testing.T) {
	est, _ := Random(&sampling.AppRun{}, 0.1, 1)
	if est.PredictedIPC != 0 || est.SampleSize != 0 {
		t.Error("empty run should give zero estimate")
	}
}

func TestRandomFracClamps(t *testing.T) {
	run := fullRun(t, testApp(1, 40), 400)
	lo, _ := Random(run, 0.0001, 1) // clamps to >= 1 unit
	if lo.SampleSize <= 0 {
		t.Error("tiny frac should still select one unit")
	}
	hi, _ := Random(run, 5.0, 1) // clamps to all units
	if hi.SampleSize < 0.99 {
		t.Errorf("frac>1 should select everything, got %.3f", hi.SampleSize)
	}
	// Selecting all units is exact up to the launch-boundary cycles not
	// covered by any fixed unit (sub-percent).
	if e := hi.Error(run); e > 0.01 {
		t.Errorf("selecting all units should be near-exact, error %v", e)
	}
}

func TestSystematicEstimate(t *testing.T) {
	run := fullRun(t, testApp(3, 80), 400)
	est := Systematic(run, 0.10, 9)
	if est.Technique != "Systematic" {
		t.Error("technique label")
	}
	if est.PredictedIPC <= 0 {
		t.Fatal("no prediction")
	}
	if est.SampleSize < 0.02 || est.SampleSize > 0.3 {
		t.Errorf("sample size %.3f far from 0.10", est.SampleSize)
	}
	if e := est.Error(run); e > 0.25 {
		t.Errorf("error %.1f%% too high for homogeneous app", e*100)
	}
	// Periodicity: selecting everything is near-exact.
	all := Systematic(run, 1.0, 9)
	if all.SampleSize < 0.99 {
		t.Errorf("frac 1.0 selected %.3f", all.SampleSize)
	}
	if e := all.Error(run); e > 0.01 {
		t.Errorf("full systematic selection error %v", e)
	}
	// Degenerate inputs.
	if got := Systematic(&sampling.AppRun{}, 0.1, 1); got.PredictedIPC != 0 {
		t.Error("empty run should give zero estimate")
	}
	if got := Systematic(run, 0, 1); got.PredictedIPC != 0 {
		t.Error("zero frac should give zero estimate")
	}
}

func TestSystematicDeterministicPerSeed(t *testing.T) {
	run := fullRun(t, testApp(2, 60), 400)
	a := Systematic(run, 0.1, 4)
	b := Systematic(run, 0.1, 4)
	if a.PredictedIPC != b.PredictedIPC {
		t.Error("same-seed systematic diverged")
	}
}
