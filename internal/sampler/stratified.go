package sampler

import (
	"math"

	"tbpoint/internal/core"
	"tbpoint/internal/sampling"
	"tbpoint/internal/stats"
)

// The two-phase stratified estimator, after "CPU Simulation Using
// Two-Phase Stratified Sampling" (Ekman): fixed units are stratified by
// their launch's inter-launch cluster (the Eq. 2 features already group
// launches with similar behaviour), a small pilot sample per stratum
// estimates each stratum's cycle variance, and the remaining simulation
// budget is spread by Neyman allocation — n_h proportional to N_h * S_h —
// so high-variance strata get more units and homogeneous strata almost
// none. The estimator is the per-stratum expansion Σ_h N_h * mean(y_h)
// over unit cycles (unbiased under per-stratum simple random sampling
// without replacement), and the 95% confidence interval comes from the
// standard stratified variance with finite-population correction.

// DefaultPilotUnits is the pilot-phase sample size per stratum. Four units
// give the variance estimate three degrees of freedom while keeping the
// pilot below the budget for all but the tiniest runs.
const DefaultPilotUnits = 4

// stratifiedSeedOffset decorrelates the stratified RNG streams from the
// other strategies' streams derived from the same base seed.
const stratifiedSeedOffset = 0x57a7

func (p Params) pilotUnits() int {
	if p.PilotUnits <= 0 {
		return DefaultPilotUnits
	}
	return p.PilotUnits
}

func (p Params) sigma() float64 {
	if p.Sigma <= 0 {
		return 0.1
	}
	return p.Sigma
}

type stratifiedSampler struct{}

func (stratifiedSampler) Name() string    { return NameStratified }
func (stratifiedSampler) Display() string { return "Stratified" }
func (stratifiedSampler) Abbrev() string  { return "Strat" }
func (stratifiedSampler) Breakdown() bool { return true }

func (stratifiedSampler) Estimate(in Input) (Outcome, error) {
	var stratumOf []int
	if in.Prof != nil && len(in.Prof.Profiles) == len(in.Full.Launches) {
		// Strata are the inter-launch clusters: launches the Eq. 2 features
		// call alike share a stratum, so within-stratum variance is small and
		// Neyman allocation has something to exploit.
		stratumOf = core.InterLaunch(in.Prof.Profiles, in.Params.sigma()).Assign
	}
	return StratifiedEstimate(in.Full, stratumOf, in.Params), nil
}

// StratifiedEstimate runs the two-phase estimator over the full run's
// fixed units. stratumOf maps each launch index to its stratum; nil (or a
// too-short slice) falls back to one stratum per launch. It is exported so
// tests can drive synthetic stratifications directly.
func StratifiedEstimate(full *sampling.AppRun, stratumOf []int, p Params) Outcome {
	var out Outcome
	units, launchOf := full.AllFixedUnits()

	// Group unit indices into dense strata, in first-appearance order so
	// stratum IDs are deterministic.
	strata := [][]int{}
	denseOf := map[int]int{}
	for i := range units {
		s := launchOf[i]
		if launchOf[i] < len(stratumOf) {
			s = stratumOf[launchOf[i]]
		}
		d, ok := denseOf[s]
		if !ok {
			d = len(strata)
			denseOf[s] = d
			strata = append(strata, nil)
		}
		strata[d] = append(strata[d], i)
	}
	out.Strata = len(strata)

	// Phase one: a seeded permutation per stratum; the pilot is its prefix
	// and phase two extends the same prefix, so the combined selection is a
	// simple random sample of the stratum of the final size.
	perms := make([][]int, len(strata))
	pilots := make([]int, len(strata))
	capacity := make([]int, len(strata))
	weight := make([]float64, len(strata))
	pilotTotal := 0
	for h, members := range strata {
		rng := stats.NewRNG((p.Seed + stratifiedSeedOffset) ^ (uint64(h)+1)*0x9e3779b97f4a7c15)
		perms[h] = rng.Perm(len(members))
		n0 := p.pilotUnits()
		if n0 > len(members) {
			n0 = len(members)
		}
		pilots[h] = n0
		pilotTotal += n0
		capacity[h] = len(members) - n0
		ys := make([]float64, n0)
		for j := 0; j < n0; j++ {
			ys[j] = float64(units[members[perms[h][j]]].Cycles)
		}
		// Neyman weight N_h * S_h from the pilot variance. A zero-variance
		// stratum weighs nothing: its pilot mean is already exact.
		weight[h] = float64(len(members)) * math.Sqrt(stats.SampleVariance(ys))
	}

	// Phase two: Neyman allocation of the budget left after the pilot.
	budget := int(p.frac()*float64(len(units)) + 0.5)
	if budget < 1 {
		budget = 1
	}
	extra := NeymanAllocate(budget-pilotTotal, capacity, weight)

	// Final selection and the stratified expansion estimate.
	selected := make([]bool, len(units))
	var predCycles, varTotal float64
	for h, members := range strata {
		n := pilots[h] + extra[h]
		out.Phase2Units += extra[h]
		if n == 0 {
			continue
		}
		ys := make([]float64, n)
		for j := 0; j < n; j++ {
			idx := members[perms[h][j]]
			selected[idx] = true
			ys[j] = float64(units[idx].Cycles)
		}
		N := float64(len(members))
		predCycles += N * stats.Mean(ys)
		// Var(Σ N_h ȳ_h) = Σ N_h (N_h - n_h) s²_h / n_h; fully sampled or
		// single-unit strata contribute nothing (s² is 0 below two samples).
		varTotal += N * (N - float64(n)) * stats.SampleVariance(ys) / float64(n)
	}
	out.PilotUnits = pilotTotal
	out.Estimate = sampling.Account("Stratified", full, selected, predCycles)
	if out.Estimate.PredictedCycles > 0 {
		// Map the cycle-total CI onto IPC by the delta method around the
		// prediction: IPC = I/C, so |dIPC| ≈ IPC * |dC| / C.
		out.CIHalf = out.Estimate.PredictedIPC * stats.NormalCI95Half(varTotal) / predCycles
	}
	return out
}

// NeymanAllocate distributes budget extra units across strata
// proportionally to weight (Neyman: N_h * S_h), never exceeding each
// stratum's remaining capacity. Results are deterministic: fractional
// remainders round by largest-remainder with index order breaking ties.
//
// Edge cases are first-class: a budget larger than the total capacity
// saturates every stratum; all-zero weights (every stratum's pilot saw
// zero variance) fall back to capacity-proportional allocation; a budget
// smaller than the stratum count goes to the heaviest strata first.
// Negative budget or capacities and non-finite or negative weights are
// treated as zero. It panics when the slice lengths differ.
func NeymanAllocate(budget int, capacity []int, weight []float64) []int {
	if len(capacity) != len(weight) {
		panic("sampler: NeymanAllocate slice length mismatch")
	}
	out := make([]int, len(capacity))
	caps := make([]int, len(capacity))
	w := make([]float64, len(weight))
	total := 0
	for i := range capacity {
		if capacity[i] > 0 {
			caps[i] = capacity[i]
		}
		total += caps[i]
		if weight[i] > 0 && !math.IsInf(weight[i], 1) && !math.IsNaN(weight[i]) {
			w[i] = weight[i]
		}
	}
	// Clamp up front: beyond total capacity the extra budget is
	// unspendable, and keeping remaining <= total keeps the float share
	// arithmetic below any int-conversion overflow.
	remaining := budget
	if remaining > total {
		remaining = total
	}
	for remaining > 0 {
		// Strata with spare capacity this round, and the weight mass to
		// split the remaining budget over. When every active weight is zero
		// the round degrades to capacity-proportional allocation.
		var active []int
		var W float64
		useCap := true
		for i := range caps {
			if caps[i] > out[i] {
				active = append(active, i)
				W += w[i]
				if w[i] > 0 {
					useCap = false
				}
			}
		}
		if len(active) == 0 {
			break
		}
		wi := func(i int) float64 {
			if useCap {
				return float64(caps[i] - out[i])
			}
			return w[i]
		}
		if useCap {
			W = 0
			for _, i := range active {
				W += wi(i)
			}
		}
		gave := 0
		for _, i := range active {
			g := int(float64(remaining) * wi(i) / W)
			if max := caps[i] - out[i]; g > max {
				g = max
			}
			out[i] += g
			gave += g
		}
		if gave == 0 {
			// Budget below the active stratum count: hand out single units
			// to the heaviest strata first (index order on ties).
			order := append([]int(nil), active...)
			for a := 1; a < len(order); a++ {
				for b := a; b > 0 && wi(order[b]) > wi(order[b-1]); b-- {
					order[b], order[b-1] = order[b-1], order[b]
				}
			}
			for _, i := range order {
				if remaining == 0 {
					break
				}
				if caps[i] > out[i] {
					out[i]++
					remaining--
				}
			}
			continue
		}
		remaining -= gave
	}
	return out
}
