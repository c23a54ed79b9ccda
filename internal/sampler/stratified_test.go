package sampler

import (
	"math"
	"reflect"
	"testing"

	"tbpoint/internal/gpusim"
	"tbpoint/internal/sampling"
)

// synthRun builds a synthetic AppRun: one launch per entry of
// unitsPerLaunch, with per-unit cycles from the cycles function. Launch
// totals are consistent with their units so the run's true IPC equals the
// all-units expansion.
func synthRun(unitsPerLaunch []int, cycles func(launch, unit int) int64) *sampling.AppRun {
	run := &sampling.AppRun{}
	for l, n := range unitsPerLaunch {
		lr := &gpusim.LaunchResult{}
		for u := 0; u < n; u++ {
			c := cycles(l, u)
			lr.FixedUnits = append(lr.FixedUnits, gpusim.FixedUnit{WarpInsts: 1000, Cycles: c})
			lr.Cycles += c
			lr.SimulatedWarpInsts += 1000
		}
		run.Launches = append(run.Launches, lr)
	}
	return run
}

// bumpy is a deterministic pseudo-random cycle profile: each launch has its
// own mean and its own spread.
func bumpy(launch, unit int) int64 {
	base := int64(500 + 400*launch)
	spread := int64(20 + 60*launch)
	h := uint64(launch*131 + unit*2654435761)
	h ^= h >> 13
	return base + int64(h%uint64(2*spread+1)) - spread
}

func TestStratifiedDeterminism(t *testing.T) {
	full := synthRun([]int{30, 30, 30}, bumpy)
	p := Params{Frac: 0.2, Seed: 9}
	a := StratifiedEstimate(full, []int{0, 1, 1}, p)
	b := StratifiedEstimate(full, []int{0, 1, 1}, p)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same inputs, different outcomes:\n%+v\n%+v", a, b)
	}
	c := StratifiedEstimate(full, []int{0, 1, 1}, Params{Frac: 0.2, Seed: 10})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical selections")
	}
	if a.Strata != 2 {
		t.Errorf("Strata = %d, want 2", a.Strata)
	}
	if a.Estimate.Technique != "Stratified" {
		t.Errorf("Technique = %q", a.Estimate.Technique)
	}
}

func TestStratifiedFullBudgetIsExact(t *testing.T) {
	full := synthRun([]int{20, 20}, bumpy)
	out := StratifiedEstimate(full, nil, Params{Frac: 1.0, Seed: 3})
	if got, want := out.Estimate.PredictedCycles, float64(full.TotalCycles()); math.Abs(got-want) > 1e-6 {
		t.Errorf("full-budget prediction %.3f, want exact %.3f", got, want)
	}
	if out.Estimate.SampleSize != 1 {
		t.Errorf("SampleSize = %g, want 1", out.Estimate.SampleSize)
	}
	if out.CIHalf != 0 {
		t.Errorf("CIHalf = %g for an exact prediction", out.CIHalf)
	}
	if out.Estimate.SkippedInterInsts != 0 || out.Estimate.SkippedIntraInsts != 0 {
		t.Error("full budget skipped instructions")
	}
}

// TestStratifiedUnbiased checks the expansion estimator's unbiasedness: the
// pilot sizes are fixed (budget == pilot total), so each stratum's selection
// is a fixed-size simple random sample and the mean prediction over many
// seeds must converge on the true cycle total.
func TestStratifiedUnbiased(t *testing.T) {
	// 3 strata x 40 units; frac 0.1 of 120 units = 12 = 3 strata x 4 pilots,
	// so phase two allocates nothing and n_h is seed-independent.
	full := synthRun([]int{40, 40, 40}, bumpy)
	stratumOf := []int{0, 1, 2}
	truth := float64(full.TotalCycles())
	const seeds = 400
	var sum float64
	for s := 0; s < seeds; s++ {
		out := StratifiedEstimate(full, stratumOf, Params{Frac: 0.1, Seed: uint64(s)})
		if out.PilotUnits != 12 || out.Phase2Units != 0 {
			t.Fatalf("seed %d: pilot %d phase2 %d, want 12/0", s, out.PilotUnits, out.Phase2Units)
		}
		sum += out.Estimate.PredictedCycles
	}
	mean := sum / seeds
	if rel := math.Abs(mean-truth) / truth; rel > 0.01 {
		t.Errorf("mean prediction %.1f vs truth %.1f: relative bias %.4f > 1%%", mean, truth, rel)
	}
}

// TestRandomUnbiased checks Random as a distribution: over many seeds its
// mean prediction converges on the true cycle total, and its 95% CI covers
// the true IPC in about 95% of them (0.92 allows for the 1000-seed
// binomial spread and the normal approximation).
func TestRandomUnbiased(t *testing.T) {
	random, _ := Get(NameRandom)
	for _, c := range []struct {
		layout []int
		frac   float64
	}{
		{[]int{40, 40, 40}, 0.1},
		{[]int{200}, 0.1},
		{[]int{100, 100, 100}, 0.05},
		{[]int{400}, 0.1},
	} {
		full := synthRun(c.layout, bumpy)
		truth, trueIPC := float64(full.TotalCycles()), full.IPC()
		const seeds = 1000
		var sum float64
		covered := 0
		for s := 0; s < seeds; s++ {
			out, err := random.Estimate(Input{Full: full, Params: Params{Frac: c.frac, Seed: uint64(s)}})
			if err != nil {
				t.Fatal(err)
			}
			sum += out.Estimate.PredictedCycles
			if math.Abs(out.Estimate.PredictedIPC-trueIPC) <= out.CIHalf {
				covered++
			}
		}
		if rel := math.Abs(sum/seeds-truth) / truth; rel > 0.01 {
			t.Errorf("%v@%v: relative bias %.4f > 1%%", c.layout, c.frac, rel)
		}
		if cov := float64(covered) / seeds; cov < 0.92 {
			t.Errorf("%v@%v: 95%% CI covers the true IPC in %.3f of seeds, want >= 0.92", c.layout, c.frac, cov)
		}
	}
}

// TestStratifiedNeymanFavoursVariance: with one noisy and one constant
// stratum, phase two must send its budget to the noisy one.
func TestStratifiedNeymanFavoursVariance(t *testing.T) {
	full := synthRun([]int{50, 50}, func(l, u int) int64 {
		if l == 0 {
			return 1000 // zero variance
		}
		return bumpy(1, u)
	})
	out := StratifiedEstimate(full, []int{0, 1}, Params{Frac: 0.5, Seed: 1})
	// Budget 50, pilots 8, so 42 extra units all belong in stratum 1.
	if out.Phase2Units != 42 {
		t.Fatalf("Phase2Units = %d, want 42", out.Phase2Units)
	}
	// The constant stratum is exactly represented by its pilot; total error
	// comes only from the noisy stratum's subsample.
	if out.CIHalf <= 0 {
		t.Errorf("CIHalf = %g, want > 0 with an undersampled noisy stratum", out.CIHalf)
	}
	if out.Strata != 2 {
		t.Errorf("Strata = %d", out.Strata)
	}
}

func TestStratifiedEdgeCases(t *testing.T) {
	// Empty run.
	out := StratifiedEstimate(&sampling.AppRun{}, nil, Params{})
	if out.Strata != 0 || out.Estimate.PredictedCycles != 0 {
		t.Errorf("empty run: %+v", out)
	}
	// Budget below the stratum count: tiny frac still simulates something
	// (every stratum keeps its pilot, clamped to stratum size).
	full := synthRun([]int{1, 1, 1, 1}, bumpy)
	out = StratifiedEstimate(full, nil, Params{Frac: 0.01, Seed: 2})
	if out.Estimate.PredictedCycles <= 0 {
		t.Error("tiny budget produced no prediction")
	}
	if out.Estimate.SampleSize != 1 {
		// 4 single-unit strata: the pilots cover everything.
		t.Errorf("SampleSize = %g, want 1 (pilots cover all)", out.Estimate.SampleSize)
	}
	// nil stratumOf falls back to one stratum per launch.
	full = synthRun([]int{5, 5}, bumpy)
	out = StratifiedEstimate(full, nil, Params{Frac: 0.5, Seed: 2})
	if out.Strata != 2 {
		t.Errorf("per-launch fallback: Strata = %d, want 2", out.Strata)
	}
	// Skipped-instruction attribution is consistent with the sample size.
	total := full.TotalInsts()
	skipped := out.Estimate.SkippedInterInsts + out.Estimate.SkippedIntraInsts
	sampled := int64(out.Estimate.SampleSize*float64(total) + 0.5)
	if sampled+skipped != total {
		t.Errorf("accounting: sampled %d + skipped %d != total %d", sampled, skipped, total)
	}
}
