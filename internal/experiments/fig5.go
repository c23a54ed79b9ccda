package experiments

import (
	"fmt"
	"io"

	"tbpoint/internal/markov"
	"tbpoint/internal/stats"
)

// Fig5Config is one Monte-Carlo curve of Fig. 5.
type Fig5Config struct {
	P float64
	M float64
	N int
}

// Fig5Configs are the paper's legend entries (p, M, N combinations).
func Fig5Configs() []Fig5Config {
	return []Fig5Config{
		{0.05, 100, 4},
		{0.05, 400, 4},
		{0.20, 100, 4},
		{0.20, 400, 4},
		{0.05, 100, 6},
		{0.20, 400, 6},
	}
}

// Fig5Result is one curve's summary plus a downsampled CDF of the relative
// IPC deviation (the paper's Fig. 5 plots these CDFs; the JSON export
// carries the points for plotting).
type Fig5Result struct {
	Config   Fig5Config
	MeanIPC  float64
	Within10 float64
	// P95Dev is the 95th percentile of |IPC-mean|/mean.
	P95Dev float64
	// CDF samples |IPC-mean|/mean at up to 50 evenly spaced quantiles.
	CDF []stats.CDFPoint `json:"cdf,omitempty"`
}

// RunFig5 performs the Lemma 4.1 Monte-Carlo study (samples per
// configuration; the paper uses 10,000): one runGrid cell per configuration,
// config i seeded with opts.Seed+5+i.
func RunFig5(opts Options, samples int) ([]Fig5Result, []CellError, error) {
	var cells []gridCell[Fig5Result]
	for i, c := range Fig5Configs() {
		cells = append(cells, gridCell[Fig5Result]{
			name: fmt.Sprintf("p=%g/M=%g/N=%d", c.P, c.M, c.N),
			run: func(o Options) (Fig5Result, error) {
				mc := markov.MonteCarlo(c.P, c.M, c.N, samples, o.Seed+5+uint64(i))
				devs := make([]float64, len(mc.IPCs))
				for j, ipc := range mc.IPCs {
					d := (ipc - mc.MeanIPC) / mc.MeanIPC
					if d < 0 {
						d = -d
					}
					devs[j] = d
				}
				full := stats.CDF(devs)
				ds := make([]stats.CDFPoint, 0, 50)
				for k := 0; k < 50; k++ {
					ds = append(ds, full[k*len(full)/50])
				}
				ds = append(ds, full[len(full)-1])
				return Fig5Result{
					Config:   c,
					MeanIPC:  mc.MeanIPC,
					Within10: mc.Within10,
					P95Dev:   percentile(devs, 95),
					CDF:      ds,
				}, nil
			},
		})
	}
	return runGrid(opts, "fig5", cells)
}

// PrintFig5 renders the study.
func PrintFig5(w io.Writer, results []Fig5Result) {
	fmt.Fprintln(w, "Figure 5: IPC variation of a homogeneous interval (Monte Carlo over M)")
	t := &table{header: []string{"config", "mean IPC", "within 10% of mean", "p95 |dev|"}}
	for _, r := range results {
		t.addRow(
			fmt.Sprintf("p%.2gM%.0fN%d", r.Config.P, r.Config.M, r.Config.N),
			f3(r.MeanIPC), pct(r.Within10), pct(r.P95Dev))
	}
	t.write(w)
	fmt.Fprintln(w, "Lemma 4.1 requires >95% of samples within 10% of the average IPC.")
	fmt.Fprintln(w)
}
