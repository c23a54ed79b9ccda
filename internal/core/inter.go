// Package core implements TBPoint itself — the paper's contribution:
// inter-launch sampling (§III), intra-launch sampling (§IV) with
// homogeneous region identification and homogeneous region sampling, and
// the combined IPC prediction (Table IV).
package core

import (
	"sort"

	"tbpoint/internal/cluster"
	"tbpoint/internal/funcsim"
	"tbpoint/internal/kernel"
	"tbpoint/internal/metrics"
)

// InterFeatures builds the Eq. 2 inter-launch feature vector of each
// launch profile:
//
//	< kernel launch size, control-flow divergence, memory divergence,
//	  thread-block variations >
//	= < #thread insts, #warp insts, #memory requests, CoV of TB sizes >
//
// each normalised by its average across launches.
func InterFeatures(profiles []*funcsim.LaunchProfile) [][]float64 {
	raw := make([][]float64, len(profiles))
	for i, lp := range profiles {
		raw[i] = []float64{
			float64(lp.TotalThreadInsts()),
			float64(lp.TotalWarpInsts()),
			float64(lp.TotalMemRequests()),
			lp.TBSizeCoV(),
		}
	}
	return cluster.NormalizeByMean(raw)
}

// InterResult is the outcome of inter-launch sampling: launch clusters and
// the representative (simulation point) of each.
type InterResult struct {
	// Features are the normalised Eq. 2 vectors, one per launch.
	Features [][]float64
	// Assign maps each launch to its cluster.
	Assign []int
	// Reps maps each cluster ID to its representative launch index.
	Reps map[int]int
	// NumClusters is the number of launch clusters.
	NumClusters int
}

// RepOf returns the representative launch index for launch li.
func (r *InterResult) RepOf(li int) int { return r.Reps[r.Assign[li]] }

// IsRep reports whether launch li is a simulation point.
func (r *InterResult) IsRep(li int) bool { return r.RepOf(li) == li }

// RepLaunches returns the sorted-unique set of representative launches.
func (r *InterResult) RepLaunches() []int {
	seen := map[int]bool{}
	var out []int
	for li := range r.Assign {
		rep := r.RepOf(li)
		if !seen[rep] {
			seen[rep] = true
			out = append(out, rep)
		}
	}
	sort.Ints(out)
	return out
}

// InterLaunch clusters kernel launches by their Eq. 2 feature vectors with
// hierarchical clustering cut at distance threshold sigma (the paper uses
// sigma = 0.1) and selects the launch closest to each cluster centre as
// its simulation point.
func InterLaunch(profiles []*funcsim.LaunchProfile, sigma float64) *InterResult {
	return interLaunch(InterFeatures(profiles), sigma)
}

// InterLaunchBBV is the paper's footnote-2 extension: the normalised
// basic-block vector of each launch is appended to the Eq. 2 features
// before clustering. It can only split clusters further (improving
// accuracy at the cost of sample size), since launches with equal Eq. 2
// features but different code paths no longer merge.
func InterLaunchBBV(profiles []*funcsim.LaunchProfile, sigma float64) *InterResult {
	feats := InterFeatures(profiles)
	dim := 0
	for _, lp := range profiles {
		if len(lp.BlockCounts) > dim {
			dim = len(lp.BlockCounts)
		}
	}
	out := make([][]float64, len(feats))
	for i, lp := range profiles {
		bbv := make([]float64, dim)
		total := lp.TotalWarpInsts()
		if total > 0 {
			for b, c := range lp.BlockCounts {
				bbv[b] = float64(c) / float64(total)
			}
		}
		out[i] = append(append([]float64(nil), feats[i]...), bbv...)
	}
	return interLaunch(out, sigma)
}

func interLaunch(feats [][]float64, sigma float64) *InterResult {
	assign := cluster.Hierarchical(feats).CutThreshold(sigma)
	return &InterResult{
		Features:    feats,
		Assign:      assign,
		Reps:        cluster.Representatives(feats, assign),
		NumClusters: cluster.NumClusters(assign),
	}
}

// AppProfile bundles an application with its one-time functional profile.
// The profile is hardware independent (§II-B); re-targeting a different
// simulated configuration reuses it unchanged and only re-runs the
// clustering steps.
type AppProfile struct {
	App      *kernel.App
	Profiles []*funcsim.LaunchProfile
}

// ProfileApp performs the one-time profiling pass (the GPUOcelot step).
func ProfileApp(app *kernel.App) *AppProfile {
	return ProfileAppMetrics(app, nil)
}

// ProfileAppMetrics is ProfileApp with the pass's wall time recorded as the
// core.profile phase of mc (nil mc behaves exactly like ProfileApp).
func ProfileAppMetrics(app *kernel.App, mc *metrics.Collector) *AppProfile {
	defer mc.StartPhase("core.profile").Stop()
	return &AppProfile{App: app, Profiles: funcsim.ProfileApp(app)}
}
