package experiments

import (
	"fmt"
	"io"

	"tbpoint/internal/gpusim"
	"tbpoint/internal/sampler"
	"tbpoint/internal/workloads"
)

// HWConfig is one Fig. 12/13 hardware point: W warps per SM, S SMs.
type HWConfig struct {
	Warps int
	SMs   int
}

// config is the Table V machine at this occupancy.
func (h HWConfig) config() gpusim.Config {
	return gpusim.DefaultConfig().WithOccupancy(h.Warps, h.SMs)
}

// Name is the configuration's short identifier, e.g. "W48S14".
func (h HWConfig) Name() string { return h.config().Name() }

// HWConfigs returns the sensitivity sweep. W48S14 is the default Table V
// occupancy (48 warps x 14 SMs); the others vary the system occupancy in
// both directions.
func HWConfigs() []HWConfig {
	return []HWConfig{
		{Warps: 16, SMs: 8},
		{Warps: 32, SMs: 14},
		{Warps: 48, SMs: 14},
		{Warps: 64, SMs: 28},
	}
}

// SensResult is one (benchmark, configuration) sensitivity outcome: the
// accuracy cell (RunBenchmark) at that configuration. Err and SampleSize are
// TBPoint's and are what Fig. 12/13 plot whatever the strategy selection.
// The profile is a pure function of the application, so each cell derives
// the one §V-C's one-time profiling would have handed it.
type SensResult struct {
	Bench      string
	Type       workloads.Type
	Config     HWConfig
	Err        float64
	SampleSize float64
	// Samplers holds every selected strategy's outcome at this hardware
	// point, each estimated against this configuration's full run.
	Samplers map[string]sampler.Outcome `json:"samplers"`
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
		name := s.Name
		fmt.Fprintf(w, "Sensitivity: %s sampling error across hardware configurations\n", s.Display)
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
