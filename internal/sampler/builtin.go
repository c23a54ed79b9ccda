package sampler

import (
	"tbpoint/internal/core"
	"tbpoint/internal/sampling"
	"tbpoint/internal/simpoint"
	"tbpoint/internal/stats"
)

// randomSeedOffset is the historical harness offset for the Random
// baseline's RNG (opts.Seed+0xbeef in the pre-registry harness); changing
// it would break byte-identity with recorded results.
const randomSeedOffset = 0xbeef

// systematicSeedOffset decorrelates the systematic start offset from the
// random baseline's stream.
const systematicSeedOffset = 0x5e5e

// randomSampler adapts sampling.Random (§V-A): frac of the fixed units,
// selected uniformly at random.
type randomSampler struct{}

func (randomSampler) Name() string    { return NameRandom }
func (randomSampler) Display() string { return "Random" }
func (randomSampler) Abbrev() string  { return "Rand" }
func (randomSampler) Breakdown() bool { return false }

func (randomSampler) Estimate(in Input) (Outcome, error) {
	est, k := sampling.Random(in.Full, in.Params.frac(), in.Params.Seed+randomSeedOffset)
	return Outcome{Estimate: est, CIHalf: srsCIHalf(in.Full, est, k)}, nil
}

// srsCIHalf attaches a simple-random-sampling 95% confidence interval to a
// unit-level estimate from n selected units (1 <= n <= units): the variance of the per-unit
// cycles over all units stands in for the sample variance (the full run is
// available here), with the finite-population correction for sampling
// without replacement. The cycle-total half-width is mapped onto IPC by the
// delta method around the prediction.
func srsCIHalf(full *sampling.AppRun, est sampling.Estimate, n int) float64 {
	units, _ := full.AllFixedUnits()
	if len(units) < 2 || est.PredictedCycles <= 0 {
		return 0
	}
	ys := make([]float64, len(units))
	for i, u := range units {
		ys[i] = float64(u.Cycles)
	}
	N := float64(len(units))
	fpc := 1 - float64(n)/N
	varTotal := N * N * fpc * stats.SampleVariance(ys) / float64(n)
	hwCycles := stats.NormalCI95Half(varTotal)
	return est.PredictedIPC * hwCycles / est.PredictedCycles
}

// systematicSampler adapts sampling.Systematic (§VI): every k-th unit from
// a random start, k = round(1/frac).
type systematicSampler struct{}

func (systematicSampler) Name() string    { return NameSystematic }
func (systematicSampler) Display() string { return "Systematic" }
func (systematicSampler) Abbrev() string  { return "Sys" }
func (systematicSampler) Breakdown() bool { return false }

func (systematicSampler) Estimate(in Input) (Outcome, error) {
	est := sampling.Systematic(in.Full, in.Params.frac(), in.Params.Seed+systematicSeedOffset)
	// Systematic sampling has no unbiased within-sample variance estimator
	// (one random draw decides the whole selection), so no CI is reported.
	return Outcome{Estimate: est}, nil
}

// simpointSampler adapts the Ideal-Simpoint baseline: k-means over unit
// BBVs with BIC model selection, simulating one unit per phase.
type simpointSampler struct{}

func (simpointSampler) Name() string    { return NameSimPoint }
func (simpointSampler) Display() string { return "Ideal-Simpoint" }
func (simpointSampler) Abbrev() string  { return "SP" }
func (simpointSampler) Breakdown() bool { return true }

func (simpointSampler) Estimate(in Input) (Outcome, error) {
	res := simpoint.Run(in.Full, simpoint.DefaultOptions())
	return Outcome{Estimate: res.Estimate, Strata: res.K}, nil
}

// tbpointSampler adapts the TBPoint pipeline itself (internal/core): the
// only strategy that runs its own (sampled) simulations rather than
// re-weighting the full run's units. It hands core the full run all the
// same: a representative launch TBPoint would simulate in full is in.Full's
// launch, simulated once already (core.RunWithReference). The outcome is the
// same value with or without it.
type tbpointSampler struct{}

func (tbpointSampler) Name() string    { return NameTBPoint }
func (tbpointSampler) Display() string { return "TBPoint" }
func (tbpointSampler) Abbrev() string  { return "TBP" }
func (tbpointSampler) Breakdown() bool { return true }

func (tbpointSampler) Estimate(in Input) (Outcome, error) {
	res, err := core.RunWithReference(in.Sim, in.Prof, in.Full, in.TBPoint)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Estimate: res.Estimate, Strata: res.Inter.NumClusters}, nil
}

func init() {
	// One init registers every built-in so the canonical order is explicit
	// here, not an accident of file names.
	Register(randomSampler{})
	Register(systematicSampler{})
	Register(simpointSampler{})
	Register(tbpointSampler{})
	Register(stratifiedSampler{})
}
