package sampler

import (
	"tbpoint/internal/core"
	"tbpoint/internal/sampling"
	"tbpoint/internal/simpoint"
	"tbpoint/internal/stats"
)

// registry holds the built-ins in canonical order: the order of this
// literal, which Names, Normalize and every report column follow.
var registry = []Sampler{
	{Name: NameRandom, Display: "Random", Abbrev: "Rand", Estimate: estimateRandom},
	{Name: NameSystematic, Display: "Systematic", Abbrev: "Sys", Estimate: estimateSystematic},
	{Name: NameSimPoint, Display: "Ideal-Simpoint", Abbrev: "SP", Breakdown: true, Estimate: estimateSimPoint},
	{Name: NameTBPoint, Display: "TBPoint", Abbrev: "TBP", Breakdown: true, Estimate: estimateTBPoint},
	{Name: NameStratified, Display: "Stratified", Abbrev: "Strat", Breakdown: true, Estimate: estimateStratified},
}

// randomSeedOffset is the historical harness offset for the Random
// baseline's RNG (opts.Seed+0xbeef in the pre-registry harness); changing
// it would break byte-identity with recorded results.
const randomSeedOffset = 0xbeef

// systematicSeedOffset decorrelates the systematic start offset from the
// random baseline's stream.
const systematicSeedOffset = 0x5e5e

func estimateRandom(in Input) (Outcome, error) {
	est, k := Random(in.Full, in.Params.frac(), in.Params.Seed+randomSeedOffset)
	return Outcome{Estimate: est, CIHalf: srsCIHalf(in.Full, est, k)}, nil
}

// Random implements the random-sampling baseline (§V-A uses
// one-million-instruction units and frac = 0.10): the first k =
// round(frac × units) units of a seeded permutation, at least one, priced by
// Eq. 1 as one phase, i.e. every instruction at the selected units' CPI. It
// also returns k, the sample size in units a variance estimate needs.
func Random(full *sampling.AppRun, frac float64, seed uint64) (est sampling.Estimate, k int) {
	units, _ := full.AllFixedUnits()
	k = min(max(int(float64(len(units))*frac+0.5), 1), len(units))
	selected := make([]bool, len(units))
	for _, i := range stats.NewRNG(seed).Perm(len(units))[:k] {
		selected[i] = true
	}
	return sampling.PhaseEstimate("Random", full, make([]int, len(units)), selected), k
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

// estimateSystematic reports no CI: systematic sampling has no unbiased
// within-sample variance estimator (one random draw decides the whole
// selection).
func estimateSystematic(in Input) (Outcome, error) {
	est := Systematic(in.Full, in.Params.frac(), in.Params.Seed+systematicSeedOffset)
	return Outcome{Estimate: est}, nil
}

// Systematic implements systematic sampling (§VI related work): every
// period-th fixed-size unit from a seeded start, period = round(1/frac),
// priced by Eq. 1 as one phase. A frac at or below zero selects nothing. The
// paper discusses it as the main alternative to profiling-based sampling and
// notes its weakness: "most instructions may be unnecessarily sampled for
// regular kernels" because the period ignores program structure.
func Systematic(full *sampling.AppRun, frac float64, seed uint64) sampling.Estimate {
	units, _ := full.AllFixedUnits()
	selected := make([]bool, len(units))
	if frac > 0 {
		period := max(int(1/frac+0.5), 1)
		for i := int(stats.NewRNG(seed).Uint64() % uint64(period)); i < len(units); i += period {
			selected[i] = true
		}
	}
	return sampling.PhaseEstimate("Systematic", full, make([]int, len(units)), selected)
}

// estimateSimPoint is the Ideal-Simpoint baseline: k-means over unit BBVs
// with BIC model selection, simulating one unit per phase.
func estimateSimPoint(in Input) (Outcome, error) {
	res := simpoint.Run(in.Full, simpoint.DefaultOptions())
	return Outcome{Estimate: res.Estimate, Strata: res.K}, nil
}

// estimateTBPoint runs the TBPoint pipeline itself (internal/core): the
// only strategy that runs its own (sampled) simulations rather than
// re-weighting the full run's units. It hands core the full run all the
// same: a representative launch TBPoint would simulate in full is in.Full's
// launch, simulated once already (core.RunWithReference). The outcome is the
// same value with or without it.
func estimateTBPoint(in Input) (Outcome, error) {
	res, err := core.RunWithReference(in.Sim, in.Prof, in.Full, in.TBPoint)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Estimate: res.Estimate, Strata: res.Inter.NumClusters}, nil
}
