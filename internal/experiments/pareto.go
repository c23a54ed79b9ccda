package experiments

import (
	"fmt"
	"io"

	"tbpoint/internal/sampler"
)

// ParetoEntry is one (benchmark, strategy) point in error-vs-speedup space.
// Speedup is the simulation-time saving as a multiplier over full
// simulation (1 / sample size), the quantity the paper trades accuracy
// against.
type ParetoEntry struct {
	Bench      string  `json:"bench"`
	Sampler    string  `json:"sampler"`
	Err        float64 `json:"err"`
	SampleSize float64 `json:"sample_size"`
	Speedup    float64 `json:"speedup"`
	// OnFrontier marks the per-benchmark Pareto frontier: no other
	// strategy on the same benchmark has both lower-or-equal error and
	// higher-or-equal speedup (with at least one strict).
	OnFrontier bool `json:"on_frontier"`
}

// ComputePareto builds the per-benchmark error-vs-speedup points for every
// strategy outcome in results and marks each benchmark's Pareto frontier.
func ComputePareto(results []*BenchResult) []ParetoEntry {
	set := reportSamplers(results)
	var out []ParetoEntry
	for _, r := range results {
		start := len(out)
		for _, s := range set {
			o, ok := r.Outcome(s.Name)
			if !ok {
				continue
			}
			e := ParetoEntry{
				Bench:      r.Name,
				Sampler:    s.Name,
				Err:        o.Err,
				SampleSize: o.Estimate.SampleSize,
			}
			if e.SampleSize > 0 {
				e.Speedup = 1 / e.SampleSize
			}
			out = append(out, e)
		}
		bench := out[start:]
		for i := range bench {
			bench[i].OnFrontier = !dominated(bench, i)
		}
	}
	return out
}

// dominated reports whether entry i is strictly worse than some other
// entry: another point with error <= and speedup >= i's, at least one
// strictly. A zero-speedup point (empty sample) never dominates.
func dominated(entries []ParetoEntry, i int) bool {
	e := entries[i]
	for j, o := range entries {
		if j == i || o.Speedup == 0 {
			continue
		}
		if o.Err <= e.Err && o.Speedup >= e.Speedup &&
			(o.Err < e.Err || o.Speedup > e.Speedup) {
			return true
		}
	}
	return false
}

// PrintPareto renders the per-workload error-vs-speedup frontier section.
func PrintPareto(w io.Writer, entries []ParetoEntry) {
	fmt.Fprintln(w, "Pareto: error vs speedup per workload (* = on frontier)")
	t := &table{header: []string{"bench", "strategy", "err", "speedup", "frontier"}}
	for _, e := range entries {
		name := e.Sampler
		if s, ok := sampler.Get(e.Sampler); ok {
			name = s.Display
		}
		speed := "-"
		if e.Speedup > 0 {
			speed = fmt.Sprintf("%.1fx", e.Speedup)
		}
		mark := ""
		if e.OnFrontier {
			mark = "*"
		}
		t.addRow(e.Bench, name, pct(e.Err), speed, mark)
	}
	t.write(w)
	fmt.Fprintln(w)
}
