package sampler

import (
	"math"
	"testing"

	"tbpoint/internal/gpusim"
	"tbpoint/internal/sampling"
	"tbpoint/internal/stats"
)

// randomRun builds a full run of uneven fixed units whose instructions tile
// each launch, with launches that have no units, nil launches (an aborted
// run's never-started ones) and launches that share one *LaunchResult, as
// the reference run's reused launches do.
func randomRun(rng *stats.RNG) *sampling.AppRun {
	run := &sampling.AppRun{}
	var made []*gpusim.LaunchResult
	for l := 1 + rng.Intn(8); l > 0; l-- {
		switch {
		case len(made) > 0 && rng.Intn(4) == 0:
			run.Launches = append(run.Launches, made[rng.Intn(len(made))])
			continue
		case rng.Intn(10) == 0:
			run.Launches = append(run.Launches, nil)
			continue
		}
		lr := &gpusim.LaunchResult{}
		for u := rng.Intn(6); u > 0; u-- {
			insts, cycles := 1+rng.Int63n(2000), 1+rng.Int63n(5000)
			a := rng.Int63n(insts + 1)
			lr.FixedUnits = append(lr.FixedUnits, gpusim.FixedUnit{
				WarpInsts: insts, Cycles: cycles, BBV: []int64{a, insts - a},
			})
			lr.SimulatedWarpInsts += insts
			lr.Cycles += cycles
		}
		made = append(made, lr)
		run.Launches = append(run.Launches, lr)
	}
	return run
}

// TestUnitStrategiesAccountForEveryInstruction: on randomized runs, every
// fixed-unit strategy's Fig. 10/11 accounting covers the run exactly — the
// selected instructions (SampleSize × TotalInsts) plus the inter- and
// intra-launch skipped ones are TotalInsts — or, with nothing to predict
// from, the estimate is the zero Estimate.
func TestUnitStrategiesAccountForEveryInstruction(t *testing.T) {
	rng := stats.NewRNG(7)
	for trial := 0; trial < 300; trial++ {
		full := randomRun(rng)
		total := full.TotalInsts()
		p := Params{Frac: 0.05 + 0.9*rng.Float64(), Seed: uint64(trial)}
		for _, name := range []string{NameRandom, NameSystematic, NameSimPoint, NameStratified} {
			s, _ := Get(name)
			out, err := s.Estimate(Input{Full: full, Params: p})
			if err != nil {
				t.Fatal(err)
			}
			est := out.Estimate
			if est.PredictedCycles == 0 {
				if est != (sampling.Estimate{Technique: est.Technique}) {
					t.Fatalf("trial %d %s: no prediction but %+v", trial, name, est)
				}
				continue
			}
			selected := est.SampleSize * float64(total)
			if math.Abs(selected-math.Round(selected)) > 1e-6 {
				t.Fatalf("trial %d %s: SampleSize × TotalInsts = %v, not a whole number of instructions", trial, name, selected)
			}
			if got := int64(math.Round(selected)) + est.SkippedInterInsts + est.SkippedIntraInsts; got != total {
				t.Fatalf("trial %d %s: selected %v + inter %d + intra %d = %d, TotalInsts %d",
					trial, name, selected, est.SkippedInterInsts, est.SkippedIntraInsts, got, total)
			}
			if want := float64(total) / est.PredictedCycles; est.PredictedIPC != want {
				t.Fatalf("trial %d %s: PredictedIPC %v, want TotalInsts/PredictedCycles %v", trial, name, est.PredictedIPC, want)
			}
		}
	}
}
