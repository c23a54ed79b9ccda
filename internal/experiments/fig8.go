package experiments

import (
	"fmt"
	"io"
	"sort"

	"tbpoint/internal/funcsim"
	"tbpoint/internal/stats"
	"tbpoint/internal/workloads"
)

// percentile is a local alias to keep report call sites short.
func percentile(xs []float64, p float64) float64 { return stats.Percentile(xs, p) }

// Fig8Series is one kernel's thread-block-size-ratio scatter: per block,
// its size normalised by the mean block size (the Fig. 8 Y axis).
type Fig8Series struct {
	Name   string
	Type   workloads.Type
	Ratios []float64 // indexed by thread block ID (largest launch)
}

// RunFig8 produces the size-ratio series of the given benchmarks (the
// paper plots one regular and one irregular kernel): one runGrid cell per
// benchmark, each profiling its own freshly built app. An unknown name is a
// setup error, returned before any cell runs.
func RunFig8(names []string, opts Options) ([]Fig8Series, []CellError, error) {
	var cells []gridCell[Fig8Series]
	for _, name := range names {
		spec, err := workloads.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		cells = append(cells, gridCell[Fig8Series]{
			name: name,
			run: func(o Options) (Fig8Series, error) {
				app := spec.Build(workloads.Config{Scale: o.Scale, Seed: o.Seed})
				// Use the largest launch, like picking the dominant kernel launch.
				best := app.Launches[0]
				for _, l := range app.Launches {
					if l.NumBlocks() > best.NumBlocks() {
						best = l
					}
				}
				sizes := funcsim.ProfileLaunch(best).TBSizes()
				mean := stats.Mean(sizes)
				ratios := make([]float64, len(sizes))
				for j, s := range sizes {
					if mean > 0 {
						ratios[j] = s / mean
					}
				}
				return Fig8Series{Name: name, Type: spec.Type, Ratios: ratios}, nil
			},
		})
	}
	return runGrid(opts, "fig8", cells)
}

// PrintFig8 renders a textual summary plus a coarse ASCII scatter per
// series.
func PrintFig8(w io.Writer, series []Fig8Series) {
	fmt.Fprintln(w, "Figure 8: Thread block size ratio vs thread block ID")
	for _, s := range series {
		cov := stats.CoV(s.Ratios)
		sorted := append([]float64(nil), s.Ratios...)
		sort.Float64s(sorted)
		fmt.Fprintf(w, "%s (type %s): %d blocks, ratio CoV %.3f, min %.2f, p50 %.2f, max %.2f\n",
			s.Name, s.Type, len(s.Ratios), cov,
			sorted[0], percentile(sorted, 50), sorted[len(sorted)-1])
		plotASCII(w, s.Ratios, 64, 8)
	}
	fmt.Fprintln(w)
}

// plotASCII draws values (Y) against index (X) with the given terminal
// width and height.
func plotASCII(w io.Writer, ys []float64, width, height int) {
	if len(ys) == 0 {
		return
	}
	maxY := stats.Max(ys)
	if maxY <= 0 {
		maxY = 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(fmt.Sprintf("%*s", width, ""))
	}
	for i, y := range ys {
		col := i * width / len(ys)
		row := int(y / maxY * float64(height-1))
		if row > height-1 {
			row = height - 1
		}
		grid[height-1-row][col] = '*'
	}
	for _, row := range grid {
		fmt.Fprintf(w, "  |%s\n", row)
	}
	fmt.Fprintf(w, "  +%s (TB ID ->, Y max %.2f)\n", dashes(width), maxY)
}

func dashes(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '-'
	}
	return string(b)
}
