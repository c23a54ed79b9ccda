package experiments

import (
	"fmt"
	"io"

	"tbpoint/internal/core"
	"tbpoint/internal/gpusim"
	"tbpoint/internal/stats"
	"tbpoint/internal/workloads"
)

// MotivationResult quantifies the §III motivation claim: on GPGPU kernels,
// basic block vectors correlate with performance *worse* than TBPoint's
// counter-based features, because "GPGPU kernels often have very few basic
// blocks and even the same basic blocks show very distinct performance
// behaviors" (memory divergence, thread-block variations, TLP changes).
//
// For every pair of fixed-size sampling units from a full simulation we
// compute the distance between their normalised BBVs and between their
// stall-probability features, and correlate each distance with the units'
// CPI difference (the methodology of Lau et al. [10], which established
// the strong BBV-performance correlation on CPUs).
type MotivationResult struct {
	Bench string
	Type  workloads.Type
	// Units is the number of sampling units compared.
	Units int
	// BBVCorr is the Pearson correlation between BBV distance and CPI
	// difference over all unit pairs.
	BBVCorr float64
	// FeatureCorr is the same correlation for the distance between the
	// size-invariant Eq. 2 intensity features (divergence ratio, memory
	// requests per instruction, thread-block size CoV).
	FeatureCorr float64
}

// unitBBVDistance is the squared Euclidean distance between two vectors,
// padding the shorter with zeros (BBVs of different kernels have different
// dimensionality).
func unitBBVDistance(a, b []float64) float64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	var d float64
	for i := 0; i < n; i++ {
		var av, bv float64
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		diff := av - bv
		d += diff * diff
	}
	return d
}

// RunMotivation computes, for each benchmark, how well BBV distance vs
// TBPoint feature distance predict performance difference across kernel
// launches (the granularity inter-launch sampling works at). The per-launch
// CPIs come from the accuracy cell's full reference run (fullReference).
// One runGrid cell per benchmark, results in benchmark (table) order.
func RunMotivation(opts Options) ([]MotivationResult, []CellError, error) {
	specs, err := opts.specs()
	if err != nil {
		return nil, nil, err
	}
	cfg := gpusim.DefaultConfig()
	sim, err := gpusim.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	cells := make([]gridCell[MotivationResult], len(specs))
	for i, spec := range specs {
		cells[i] = gridCell[MotivationResult]{
			name: spec.Name,
			run: func(o Options) (MotivationResult, error) {
				return motivationCell(o, spec, sim, cfg)
			},
		}
	}
	return runGrid(opts, "motivation", cells)
}

// motivationCell is one benchmark's correlation study. Concurrent cells
// share o.Metrics: everything below records through Merge, AddPhase or
// AtomicAdd, which are safe on one collector.
func motivationCell(o Options, spec *workloads.Spec, sim *gpusim.Simulator, cfg gpusim.Config) (MotivationResult, error) {
	mc := o.Metrics
	app, unit := o.buildApp(spec, mc)
	full, err := o.fullReference(o.subcell(spec.Name, cfg), sim, app, unit, mc)
	if err != nil {
		return MotivationResult{}, err
	}
	prof := core.ProfileAppMetrics(app, mc)

	// Per-launch BBVs (normalised), per-instruction intensity features,
	// and measured CPIs. The intensity features are the size-invariant
	// content of the Eq. 2 vector — control-flow divergence
	// (thread/warp instruction ratio), memory divergence (requests per
	// instruction) and thread-block variation — i.e. what the features
	// say about *how* a launch performs rather than how big it is.
	nLaunches := len(app.Launches)
	feats := make([][]float64, nLaunches)
	bbvs := make([][]float64, nLaunches)
	cpis := make([]float64, nLaunches)
	for li, lp := range prof.Profiles {
		warp := float64(lp.TotalWarpInsts())
		f := make([]float64, 3)
		bbv := make([]float64, len(lp.BlockCounts))
		if warp > 0 {
			f[0] = float64(lp.TotalThreadInsts()) / (warp * 32)
			f[1] = float64(lp.TotalMemRequests()) / warp
			for b, c := range lp.BlockCounts {
				bbv[b] = float64(c) / warp
			}
		}
		f[2] = lp.TBSizeCoV()
		feats[li], bbvs[li] = f, bbv
		if res := full.Launches[li]; res.SimulatedWarpInsts > 0 {
			cpis[li] = float64(res.Cycles) / float64(res.SimulatedWarpInsts)
		}
	}

	var bbvD, featD, cpiD []float64
	for a := 0; a < nLaunches; a++ {
		for b := a + 1; b < nLaunches; b++ {
			bbvD = append(bbvD, unitBBVDistance(bbvs[a], bbvs[b]))
			featD = append(featD, unitBBVDistance(feats[a], feats[b]))
			d := cpis[a] - cpis[b]
			if d < 0 {
				d = -d
			}
			cpiD = append(cpiD, d)
		}
	}
	r := MotivationResult{
		Bench:       spec.Name,
		Type:        spec.Type,
		Units:       nLaunches,
		BBVCorr:     stats.Pearson(bbvD, cpiD),
		FeatureCorr: stats.Pearson(featD, cpiD),
	}
	o.progress("# %-8s bbv corr %+.3f, feature corr %+.3f",
		spec.Name, r.BBVCorr, r.FeatureCorr)
	return r, nil
}

// PrintMotivation renders the §III correlation study.
func PrintMotivation(w io.Writer, results []MotivationResult) {
	fmt.Fprintln(w, "Motivation (§III): correlation of launch-signature distance with CPI difference")
	t := &table{header: []string{"bench", "type", "launches", "BBV corr", "Eq.2 feature corr"}}
	for _, r := range results {
		t.addRow(r.Bench, r.Type.String(), fmt.Sprintf("%d", r.Units),
			fmt.Sprintf("%+.3f", r.BBVCorr), fmt.Sprintf("%+.3f", r.FeatureCorr))
	}
	t.write(w)
	fmt.Fprintln(w, `paper: "we found that BBVs are less correlated with performance on GPGPU`)
	fmt.Fprintln(w, `programs ... the sources of performance variations cannot be solely`)
	fmt.Fprintln(w, `obtained through BBVs" — higher Eq. 2 correlation supports inter-launch`)
	fmt.Fprintln(w, "sampling's feature choice. (Single-launch kernels have no pairs.)")
	fmt.Fprintln(w)
}
