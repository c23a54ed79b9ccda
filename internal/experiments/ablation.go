package experiments

import (
	"fmt"
	"io"

	"tbpoint/internal/core"
	"tbpoint/internal/gpusim"
	"tbpoint/internal/sampler"
	"tbpoint/internal/workloads"
)

// AblationResult is one (variant, benchmark) cell of an ablation study.
type AblationResult struct {
	Study      string // "warming" or "sigma-intra"
	Variant    string
	Bench      string
	Err        float64
	SampleSize float64
}

// warmingVariants are the warming-criterion ablation points: the paper's
// literal pairwise rule, the default leverage-gated drift window, and a
// strict variant.
func warmingVariants() []struct {
	name string
	opts core.Options
} {
	paper := core.DefaultOptions()
	paper.WarmStable, paper.WarmWindow = 1, 0
	def := core.DefaultOptions()
	strict := core.DefaultOptions()
	strict.WarmStable, strict.WarmWindow, strict.WarmWindowMinRegion = 2, 8, 0
	return []struct {
		name string
		opts core.Options
	}{
		{"paper(pairwise)", paper},
		{"default(gated-window)", def},
		{"strict(window-always)", strict},
	}
}

// sigmaVariants sweep the intra-launch clustering threshold around the
// paper's 0.2.
func sigmaVariants() []struct {
	name string
	opts core.Options
} {
	mk := func(sigma float64) core.Options {
		o := core.DefaultOptions()
		o.SigmaIntra = sigma
		return o
	}
	return []struct {
		name string
		opts core.Options
	}{
		{"sigma=0.05", mk(0.05)},
		{"sigma=0.2(paper)", mk(0.2)},
		{"sigma=0.5", mk(0.5)},
	}
}

// RunAblations evaluates the warming-criterion and sigma-intra ablations,
// one runGrid cell per (study, variant, bench), results in that order.
// The warming study uses drift-prone and irregular kernels; the sigma study
// uses bfs, whose stall-probability phases the threshold must separate.
func RunAblations(opts Options) ([]AblationResult, []CellError, error) {
	var cells []gridCell[AblationResult]
	add := func(study, variant, bench string, co core.Options) {
		cells = append(cells, gridCell[AblationResult]{
			name: study + "/" + variant + "/" + bench,
			run: func(o Options) (AblationResult, error) {
				spec, err := workloads.ByName(bench)
				if err != nil {
					return AblationResult{}, err
				}
				// The variants only change TBPoint options, so TBPoint is the
				// one strategy a cell runs, whatever the harness selection.
				o.TBPoint = &co
				o.Samplers = []string{sampler.NameTBPoint}
				r, err := RunBenchmark(spec, gpusim.DefaultConfig(), o)
				if err != nil {
					return AblationResult{}, err
				}
				tb := r.Samplers[sampler.NameTBPoint]
				o.progress("# %-12s %-22s %-8s err %.2f%% size %.1f%%",
					study, variant, bench, tb.Err*100, tb.Estimate.SampleSize*100)
				return AblationResult{
					Study:      study,
					Variant:    variant,
					Bench:      bench,
					Err:        tb.Err,
					SampleSize: tb.Estimate.SampleSize,
				}, nil
			},
		})
	}
	for _, v := range warmingVariants() {
		for _, bench := range []string{"hotspot", "lbm", "bfs"} {
			add("warming", v.name, bench, v.opts)
		}
	}
	for _, v := range sigmaVariants() {
		add("sigma-intra", v.name, "bfs", v.opts)
	}
	return runGrid(opts, "ablations", cells)
}

// PrintAblations renders the ablation table (Err and sample are TBPoint's).
func PrintAblations(w io.Writer, results []AblationResult) {
	fmt.Fprintln(w, "Ablations: warming criterion and intra-launch threshold")
	t := &table{header: []string{"study", "variant", "bench", "err", "sample"}}
	for _, r := range results {
		t.addRow(r.Study, r.Variant, r.Bench, pct(r.Err), pct(r.SampleSize))
	}
	t.write(w)
	fmt.Fprintln(w)
}
