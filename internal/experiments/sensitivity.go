package experiments

import (
	"fmt"
	"io"

	"tbpoint/internal/core"
	"tbpoint/internal/gpusim"
	"tbpoint/internal/sampler"
	"tbpoint/internal/sampling"
	"tbpoint/internal/workloads"
)

// HWConfig is one Fig. 12/13 hardware point: W warps per SM, S SMs.
type HWConfig struct {
	Warps int
	SMs   int
}

func (h HWConfig) Name() string { return fmt.Sprintf("W%dS%d", h.Warps, h.SMs) }

// HWConfigs returns the sensitivity sweep. W32S14 approximates the default
// Table V machine; the others vary the system occupancy in both directions.
func HWConfigs() []HWConfig {
	return []HWConfig{
		{Warps: 16, SMs: 8},
		{Warps: 32, SMs: 14},
		{Warps: 48, SMs: 14},
		{Warps: 64, SMs: 28},
	}
}

// SensResult is one (benchmark, configuration) sensitivity outcome. Err and
// SampleSize are TBPoint's with one-time profiling — the profile and
// inter-launch clustering are computed once and reused across
// configurations (§V-C) — and are what Fig. 12/13 plot whatever the
// strategy selection.
type SensResult struct {
	Bench      string
	Type       workloads.Type
	Config     HWConfig
	Err        float64
	SampleSize float64
	// Samplers holds every selected strategy's outcome at this hardware
	// point (TBPoint reuses the one-time-profiling Retarget result; the
	// others re-estimate against this configuration's full run).
	Samplers map[string]sampler.Outcome `json:"samplers"`
}

// sensSamplers computes the per-strategy outcomes for one sensitivity cell.
// The TBPoint entry reuses the Retarget result (tbEst/inter) so the cell
// keeps the §V-C one-time-profiling semantics instead of re-profiling per
// point.
func (o Options) sensSamplers(sim *gpusim.Simulator, prof *core.AppProfile,
	inter *core.InterResult, full *sampling.AppRun, tbEst sampling.Estimate) map[string]sampler.Outcome {
	set, err := sampler.Resolve(o.samplerNames())
	if err != nil {
		return nil
	}
	in := sampler.Input{
		Sim:     sim,
		Prof:    prof,
		Full:    full,
		Params:  o.samplerParams(),
		TBPoint: o.tbpointOptions(),
	}
	m := make(map[string]sampler.Outcome, len(set))
	for _, s := range set {
		var out sampler.Outcome
		if s.Name() == sampler.NameTBPoint {
			out = sampler.Outcome{Estimate: tbEst, Strata: inter.NumClusters}
		} else {
			var err error
			out, err = s.Estimate(in)
			if err != nil {
				continue
			}
		}
		out.Err = out.Estimate.Error(full)
		m[s.Name()] = out
	}
	return m
}

// PrintFig12 renders sampling errors per hardware configuration.
func PrintFig12(w io.Writer, results []SensResult) {
	fmt.Fprintln(w, "Figure 12: TBPoint sampling error across hardware configurations")
	printSensTable(w, results, func(r SensResult) string { return pct(r.Err) })
	fmt.Fprintln(w, "paper: maximum error rate below 14%")
	fmt.Fprintln(w)
}

// PrintFig13 renders sample sizes per hardware configuration.
func PrintFig13(w io.Writer, results []SensResult) {
	fmt.Fprintln(w, "Figure 13: TBPoint total sample size across hardware configurations")
	printSensTable(w, results, func(r SensResult) string { return pct(r.SampleSize) })
	fmt.Fprintln(w)
}

// PrintSensSamplers renders one error table per selected strategy other
// than TBPoint (which owns Fig. 12).
func PrintSensSamplers(w io.Writer, results []SensResult) {
	set := samplersWhere(func(name string) bool {
		if name == sampler.NameTBPoint {
			return false
		}
		for _, r := range results {
			if _, ok := r.Samplers[name]; ok {
				return true
			}
		}
		return false
	})
	for _, s := range set {
		name := s.Name()
		fmt.Fprintf(w, "Sensitivity: %s sampling error across hardware configurations\n", s.Display())
		printSensTable(w, results, func(r SensResult) string {
			o, ok := r.Samplers[name]
			if !ok {
				return "-"
			}
			return pct(o.Err)
		})
		fmt.Fprintln(w)
	}
}

func printSensTable(w io.Writer, results []SensResult, cell func(SensResult) string) {
	configs := HWConfigs()
	header := []string{"bench", "type"}
	for _, c := range configs {
		header = append(header, c.Name())
	}
	t := &table{header: header}
	byBench := map[string][]SensResult{}
	var order []string
	for _, r := range results {
		if _, ok := byBench[r.Bench]; !ok {
			order = append(order, r.Bench)
		}
		byBench[r.Bench] = append(byBench[r.Bench], r)
	}
	for _, b := range order {
		row := []string{b, byBench[b][0].Type.String()}
		for _, c := range configs {
			v := "-"
			for _, r := range byBench[b] {
				if r.Config == c {
					v = cell(r)
				}
			}
			row = append(row, v)
		}
		t.addRow(row...)
	}
	t.write(w)
}
