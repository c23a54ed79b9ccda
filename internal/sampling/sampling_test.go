package sampling

import (
	"math"
	"testing"

	"tbpoint/internal/gpusim"
	"tbpoint/internal/isa"
	"tbpoint/internal/kernel"
)

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

func fullRun(t *testing.T, app *kernel.App, unitInsts int64) *AppRun {
	t.Helper()
	cfg := gpusim.DefaultConfig()
	cfg.NumSMs = 2
	sim := gpusim.MustNew(cfg)
	run := &AppRun{}
	for _, l := range app.Launches {
		run.Launches = append(run.Launches,
			sim.RunLaunch(l, gpusim.RunOptions{FixedUnitInsts: unitInsts}))
	}
	return run
}

func TestAppRunAggregates(t *testing.T) {
	run := fullRun(t, testApp(3, 60), 500)
	if run.TotalInsts() <= 0 || run.TotalCycles() <= 0 {
		t.Fatal("empty aggregates")
	}
	if ipc := run.IPC(); ipc <= 0 || ipc > 2 {
		t.Errorf("IPC = %v out of (0,2] for 2 SMs", ipc)
	}
	overall := run.OverallIPC()
	if overall <= 0 || overall > 2 {
		t.Errorf("OverallIPC = %v", overall)
	}
	// Whole-GPU and per-SM IPC agree within load-imbalance slack.
	if math.Abs(overall-run.IPC())/run.IPC() > 0.25 {
		t.Errorf("OverallIPC %v far from IPC %v", overall, run.IPC())
	}
	units, launchOf := run.AllFixedUnits()
	if len(units) == 0 || len(units) != len(launchOf) {
		t.Fatalf("units %d launchOf %d", len(units), len(launchOf))
	}
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
	est, _ := Random(&AppRun{}, 0.1, 1)
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

func TestEstimateBreakdown(t *testing.T) {
	e := Estimate{SkippedInterInsts: 30, SkippedIntraInsts: 10}
	if f := e.InterFraction(); f != 0.75 {
		t.Errorf("InterFraction = %v, want 0.75", f)
	}
	if f := (Estimate{}).InterFraction(); f != 0 {
		t.Errorf("empty InterFraction = %v", f)
	}
}

func TestEstimateError(t *testing.T) {
	run := fullRun(t, testApp(1, 40), 400)
	exact := Estimate{PredictedIPC: run.IPC()}
	if e := exact.Error(run); e != 0 {
		t.Errorf("exact estimate error %v", e)
	}
	off := Estimate{PredictedIPC: run.IPC() * 1.1}
	if e := off.Error(run); math.Abs(e-0.1) > 1e-9 {
		t.Errorf("10%%-off estimate error %v", e)
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
	if got := Systematic(&AppRun{}, 0.1, 1); got.PredictedIPC != 0 {
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

// unitRun is a run of hand-written launches, each a list of (insts, cycles)
// units whose instructions tile the launch.
func unitRun(launches ...[][2]int64) *AppRun {
	run := &AppRun{}
	for _, units := range launches {
		lr := &gpusim.LaunchResult{}
		for _, u := range units {
			lr.FixedUnits = append(lr.FixedUnits, gpusim.FixedUnit{Index: len(lr.FixedUnits), WarpInsts: u[0], Cycles: u[1]})
			lr.SimulatedWarpInsts += u[0]
			lr.Cycles += u[1]
		}
		run.Launches = append(run.Launches, lr)
	}
	return run
}

func TestAccountAttribution(t *testing.T) {
	run := unitRun([][2]int64{{10, 40}, {20, 60}}, [][2]int64{{30, 90}})
	// A reused launch shares the first one's result but is its own launch.
	run.Launches = append(run.Launches, run.Launches[0], nil)
	// Units: launch 0 {0, 1}, launch 1 {2}, launch 2 {3, 4}.
	est := Account("t", run, []bool{true, false, false, false, true}, 180)
	want := Estimate{Technique: "t", PredictedCycles: 180, PredictedIPC: 90.0 / 180,
		SampleSize: 30.0 / 90, SkippedIntraInsts: 20 + 10, SkippedInterInsts: 30}
	if est != want {
		t.Errorf("Account = %+v, want %+v", est, want)
	}
	for _, pred := range []float64{0, -1, math.NaN()} {
		if got := Account("t", run, make([]bool, 5), pred); got != (Estimate{Technique: "t"}) {
			t.Errorf("prediction %v: %+v, want the zero Estimate", pred, got)
		}
	}
}

func TestPhaseEstimateIsEq1(t *testing.T) {
	run := unitRun([][2]int64{{10, 40}, {20, 60}}, [][2]int64{{30, 90}, {40, 400}})
	// Phase 0 = units 0 and 2 priced at unit 0's CPI 4; phase 1 = units 1
	// and 3 at the CPI of both, 460/60.
	est := PhaseEstimate("t", run, []int{0, 1, 0, 1}, []bool{true, true, false, true})
	if want := 4*40.0 + 460.0/60*60; est.PredictedCycles != want {
		t.Errorf("PredictedCycles = %v, want %v", est.PredictedCycles, want)
	}
	// A phase with nothing selected adds no cycles.
	est = PhaseEstimate("t", run, []int{0, 1, 0, 1}, []bool{true, false, false, false})
	if want := 4 * 40.0; est.PredictedCycles != want {
		t.Errorf("unselected phase: PredictedCycles = %v, want %v", est.PredictedCycles, want)
	}
	// Everything selected as one phase reproduces the run's cycles.
	est = PhaseEstimate("t", run, make([]int, 4), []bool{true, true, true, true})
	if est.PredictedCycles != float64(run.TotalCycles()) || est.SampleSize != 1 {
		t.Errorf("full selection: %+v, want %d cycles and sample size 1", est, run.TotalCycles())
	}
}
