package experiments

import (
	"fmt"
	"io"
	"strings"

	"tbpoint/internal/sampler"
	"tbpoint/internal/stats"
)

// table is a minimal fixed-width text table writer.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

func pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }

// geo computes a geometric mean with entries floored at 0.01% so that an
// exact-zero sampling error (possible at small scales) does not collapse
// the mean; the paper's own entries are all comfortably above this floor.
func geo(vs []float64) float64 {
	floored := make([]float64, len(vs))
	for i, v := range vs {
		if v < 1e-4 {
			v = 1e-4
		}
		floored[i] = v
	}
	return stats.GeoMean(floored)
}

// samplersWhere returns the registered strategies, in registry order, for
// which has reports true. Every renderer sizes its columns through this, so
// column order is the registry's and a name this binary does not know (a
// bundle from a newer build) is skipped rather than rendered blank.
func samplersWhere(has func(name string) bool) []sampler.Sampler {
	var set []sampler.Sampler
	for _, name := range sampler.Names() {
		if s, ok := sampler.Get(name); ok && has(name) {
			set = append(set, s)
		}
	}
	return set
}

// reportSamplers resolves the strategy columns for a result set: every
// strategy any result carries an outcome for. The figure tables below size
// themselves from this, so adding a registered strategy to a run grows
// every table consistently.
func reportSamplers(results []*BenchResult) []sampler.Sampler {
	return samplersWhere(func(name string) bool {
		for _, r := range results {
			if _, ok := r.Samplers[name]; ok {
				return true
			}
		}
		return false
	})
}

// summary is the one-line per-strategy digest of the progress output:
// " <name> <err%>/<size%>" for each strategy that ran.
func (r *BenchResult) summary() string {
	var b strings.Builder
	for _, s := range reportSamplers([]*BenchResult{r}) {
		o := r.Samplers[s.Name()]
		fmt.Fprintf(&b, " %s %.2f/%.1f", s.Name(), o.Err*100, o.Estimate.SampleSize*100)
	}
	return b.String()
}

// emptyCells returns n empty cells (summary-row padding).
func emptyCells(n int) []string { return make([]string, n) }

// PrintFig9 renders the overall-IPC comparison and sampling-error geomeans,
// one IPC and one error column per selected strategy.
func PrintFig9(w io.Writer, results []*BenchResult) {
	set := reportSamplers(results)
	fmt.Fprintln(w, "Figure 9: Overall IPC (whole-GPU) and sampling error")
	header := []string{"bench", "type", "full IPC", "overall(per-SM)"}
	for _, s := range set {
		header = append(header, s.Display())
	}
	for _, s := range set {
		header = append(header, "err("+s.Abbrev()+")")
	}
	t := &table{header: header}
	errs := make([][]float64, len(set))
	for _, r := range results {
		row := []string{r.Name, r.Type.String(), f3(r.FullIPC), f3(r.FullOverallIPC)}
		var errCells []string
		for i, s := range set {
			o, ok := r.Outcome(s.Name())
			if !ok {
				row = append(row, "-")
				errCells = append(errCells, "-")
				continue
			}
			row = append(row, f3(o.Estimate.PredictedIPC))
			errCells = append(errCells, pct(o.Err))
			errs[i] = append(errs[i], o.Err)
		}
		t.addRow(append(row, errCells...)...)
	}
	summary := func(label string, f func([]float64) float64) {
		row := append([]string{label}, emptyCells(3+len(set))...)
		for _, es := range errs {
			if len(es) == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, pct(f(es)))
		}
		t.addRow(row...)
	}
	summary("geomean", geo)
	summary("mean", stats.Mean)
	summary("max", stats.Max)
	t.write(w)
	fmt.Fprintf(w, "paper geomeans: Random 7.95%%, Ideal-Simpoint 1.74%%, TBPoint 0.47%%\n\n")
}

// PrintFig10 renders total sample sizes, one column per selected strategy.
func PrintFig10(w io.Writer, results []*BenchResult) {
	set := reportSamplers(results)
	fmt.Fprintln(w, "Figure 10: Total sample size (simulated / total warp instructions)")
	header := []string{"bench", "type"}
	for _, s := range set {
		header = append(header, s.Display())
	}
	t := &table{header: header}
	sizes := make([][]float64, len(set))
	for _, r := range results {
		row := []string{r.Name, r.Type.String()}
		for i, s := range set {
			o, ok := r.Outcome(s.Name())
			if !ok {
				row = append(row, "-")
				continue
			}
			row = append(row, pct(o.Estimate.SampleSize))
			sizes[i] = append(sizes[i], o.Estimate.SampleSize)
		}
		t.addRow(row...)
	}
	row := append([]string{"geomean"}, emptyCells(1)...)
	for _, ss := range sizes {
		if len(ss) == 0 {
			row = append(row, "-")
			continue
		}
		row = append(row, pct(geo(ss)))
	}
	t.addRow(row...)
	t.write(w)
	fmt.Fprintf(w, "paper geomeans: Random 10%%, Ideal-Simpoint 5.4%%, TBPoint 2.6%%\n\n")
}

// PrintFig11 renders the inter/intra savings breakdown for every selected
// strategy that attributes skipped work (Breakdown() == true). Columns run
// in reverse canonical order, which reproduces the historical TBP-then-SP
// layout for the default set.
func PrintFig11(w io.Writer, results []*BenchResult) {
	var set []sampler.Sampler
	for _, s := range reportSamplers(results) {
		if s.Breakdown() {
			set = append(set, s)
		}
	}
	for i, j := 0, len(set)-1; i < j; i, j = i+1, j-1 {
		set[i], set[j] = set[j], set[i]
	}
	fmt.Fprintln(w, "Figure 11: Breakdown of skipped instructions (inter vs intra launch)")
	header := []string{"bench", "type"}
	for _, s := range set {
		header = append(header, s.Abbrev()+" inter%", s.Abbrev()+" intra%")
	}
	t := &table{header: header}
	for _, r := range results {
		row := []string{r.Name, r.Type.String()}
		for _, s := range set {
			o, ok := r.Outcome(s.Name())
			if !ok {
				row = append(row, "-", "-")
				continue
			}
			fi := o.Estimate.InterFraction()
			row = append(row, pct(fi), pct(1-fi))
		}
		t.addRow(row...)
	}
	t.write(w)
	fmt.Fprintln(w)
}

// PrintSamplerDetail renders the per-strategy table: error, sample size,
// 95% confidence interval and the stratified backend's two-phase accounting.
func PrintSamplerDetail(w io.Writer, results []*BenchResult) {
	set := reportSamplers(results)
	fmt.Fprintln(w, "Sampler detail: per-strategy error, sample size and 95% CI")
	t := &table{header: []string{"bench", "strategy", "IPC", "err", "sample",
		"ci95(IPC)", "strata", "pilot", "phase2"}}
	for _, r := range results {
		for _, s := range set {
			o, ok := r.Outcome(s.Name())
			if !ok {
				continue
			}
			ci := "-"
			if o.CIHalf > 0 {
				ci = "±" + f3(o.CIHalf)
			}
			count := func(v int) string {
				if v == 0 {
					return "-"
				}
				return fmt.Sprintf("%d", v)
			}
			t.addRow(r.Name, s.Display(), f3(o.Estimate.PredictedIPC), pct(o.Err),
				pct(o.Estimate.SampleSize), ci,
				count(o.Strata), count(o.PilotUnits), count(o.Phase2Units))
		}
	}
	t.write(w)
	fmt.Fprintln(w)
}
