// Package simpoint implements the Ideal-Simpoint baseline of §V-A: basic
// block vectors are collected for every fixed-size sampling unit during a
// full timing simulation ("Ideal" because, unlike on a CPU, the
// per-sampling-unit instruction mix of a GPU cannot be known without the
// full timing simulation — warp scheduling decides what runs in each
// unit), the BBVs are clustered with k-means under the Bayesian
// information criterion, and the overall performance is predicted from one
// representative unit per cluster via Eq. 1.
package simpoint

import (
	"tbpoint/internal/cluster"
	"tbpoint/internal/gpusim"
	"tbpoint/internal/sampling"
)

// Options configure the baseline.
type Options struct {
	// MaxK bounds the number of clusters k-means may choose.
	MaxK int
	// BICFrac is the SimPoint rule: pick the smallest k whose
	// (range-normalised) BIC score is at least this fraction of the best.
	BICFrac float64
	// Seed feeds k-means++ initialisation.
	Seed uint64
}

// DefaultOptions mirror the SimPoint tool's usual settings.
func DefaultOptions() Options { return Options{MaxK: 30, BICFrac: 0.9, Seed: 1} }

// Result describes the chosen simulation points.
type Result struct {
	Estimate sampling.Estimate
	// K is the number of clusters (simulation points).
	K int
	// Points are the selected unit indices (into the concatenated unit
	// list), one per cluster in ascending cluster id.
	Points []int
}

// normalizeBBV converts a unit's BBV into a frequency vector of the given
// dimension (Eq. 1's normalisation by total instruction count).
func normalizeBBV(u gpusim.FixedUnit, dim int) []float64 {
	v := make([]float64, dim)
	if u.WarpInsts == 0 {
		return v
	}
	for b, c := range u.BBV {
		if b < dim {
			v[b] = float64(c) / float64(u.WarpInsts)
		}
	}
	return v
}

// Run applies Ideal-Simpoint to a completed full simulation whose fixed
// units carry BBVs.
func Run(full *sampling.AppRun, opts Options) Result {
	const technique = "Ideal-Simpoint"
	units, _ := full.AllFixedUnits()
	if len(units) == 0 {
		return Result{Estimate: sampling.Estimate{Technique: technique}}
	}

	// Without BBVs every unit looks alike (degenerate but well defined).
	dim := 1
	for _, u := range units {
		dim = max(dim, len(u.BBV))
	}
	points := make([][]float64, len(units))
	for i, u := range units {
		points[i] = normalizeBBV(u, dim)
	}

	km := cluster.KMeansBIC(points, opts.MaxK, opts.BICFrac, opts.Seed)
	res := Result{K: km.K}
	// Eq. 1 with the clusters as phases, each priced at its representative's
	// CPI. Assignments are dense cluster ids, so Points follow ascending id.
	reps := cluster.Representatives(points, km.Assign)
	selected := make([]bool, len(units))
	for cid := range km.K {
		res.Points = append(res.Points, reps[cid])
		selected[reps[cid]] = true
	}
	res.Estimate = sampling.PhaseEstimate(technique, full, km.Assign, selected)
	return res
}
