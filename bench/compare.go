package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of one (metric, workload) pair.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict applies a metric's direction and bound to two sets of runs.
//
//   - worse: the new median is worse than the old by more than the bound;
//   - unresolved: the run-to-run spread (quartile distance over median, of
//     either side) is wider than the bound, so a regression of the size the
//     bound forbids could hide in it -- unless every new run reads better
//     than every old run;
//   - better: the new median is better by more than the old runs' own
//     quartile distance;
//   - same: otherwise.
func verdict(old, new stat, lowerIsBetter bool, bound float64) string {
	sign := 1.0 // positive delta = worse
	if !lowerIsBetter {
		sign = -1
	}
	if old.Median == 0 {
		return verdictUnresolved
	}
	rel := sign * (new.Median - old.Median) / old.Median
	spread := func(s stat) float64 {
		if s.Median == 0 {
			return 0
		}
		return (s.Q3 - s.Q1) / s.Median
	}
	allBetter := len(old.Values) > 0 && len(new.Values) > 0
	for _, n := range new.Values {
		for _, o := range old.Values {
			if sign*(n-o) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return verdictBetter
	case spread(old) > bound || spread(new) > bound:
		return verdictUnresolved
	case rel > bound:
		return verdictWorse
	case -rel > spread(old) && -rel > 0:
		return verdictBetter
	}
	return verdictSame
}

// compareReports prints one row per (metric, workload) and reports whether
// any is worse. Reports from different hosts are refused: a verdict across
// core counts or toolchains would be advice at best.
func compareReports(w io.Writer, specPath, oldPath, newPath string) (worse bool, err error) {
	var spec benchmarkSpec
	var old, new suiteReport
	for path, v := range map[string]any{specPath: &spec, oldPath: &old, newPath: &new} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	if old.Host.NProc != new.Host.NProc || old.Host.GOMAXPROCS != new.Host.GOMAXPROCS || old.Host.GoVersion != new.Host.GoVersion {
		return false, fmt.Errorf("refusing to compare across hosts: old is nproc=%d GOMAXPROCS=%d %s, new is nproc=%d GOMAXPROCS=%d %s",
			old.Host.NProc, old.Host.GOMAXPROCS, old.Host.GoVersion, new.Host.NProc, new.Host.GOMAXPROCS, new.Host.GoVersion)
	}
	if old.Seed != new.Seed || old.RunSeconds != new.RunSeconds {
		return false, fmt.Errorf("refusing to compare different runs: old is seed %d at %gs, new is seed %d at %gs",
			old.Seed, old.RunSeconds, new.Seed, new.RunSeconds)
	}
	fmt.Fprintf(w, "%-18s %-20s %12s %25s %12s %25s %8s  %s\n",
		"workload", "metric", "old median", "[q1 .. q3]", "new median", "[q1 .. q3]", "change", "verdict")
	for _, name := range sortedKeys(new.Workloads) {
		ow, nw := old.Workloads[name], new.Workloads[name]
		if ow == nil {
			fmt.Fprintf(w, "%-18s only in the new report\n", name)
			continue
		}
		if nw.Failed > ow.Failed {
			fmt.Fprintf(w, "%-18s %-20s %12d %25s %12d %25s %8s  %s\n", name, "failed operations", ow.Failed, "", nw.Failed, "", "", verdictWorse)
			worse = true
		}
		for _, m := range spec.EndToEnd {
			o, okO := ow.EndToEnd[m.Name]
			n, okN := nw.EndToEnd[m.Name]
			if !okO || !okN {
				continue
			}
			v := verdict(o, n, m.Better == "lower", m.Bound)
			worse = worse || v == verdictWorse
			fmt.Fprintf(w, "%-18s %-20s %12.5g %25s %12.5g %25s %+7.1f%%  %s\n", name, m.Name,
				o.Median, fmt.Sprintf("[%.5g .. %.5g]", o.Q1, o.Q3),
				n.Median, fmt.Sprintf("[%.5g .. %.5g]", n.Q1, n.Q3),
				100*(n.Median-o.Median)/o.Median, v)
		}
		// Simulated statistics repeat (see sameFact) or the change moved them.
		for _, k := range sortedKeys(nw.Accuracy) {
			if ov, ok := ow.Accuracy[k]; ok && !sameFact(ov, nw.Accuracy[k]) {
				fmt.Fprintf(w, "%-18s %-20s %12.6g %25s %12.6g %25s %8s  %s\n", name, k, ov, "", nw.Accuracy[k], "", "", "differs (exact-repeat statistic)")
			}
		}
	}
	for name := range old.Workloads {
		if new.Workloads[name] == nil {
			fmt.Fprintf(w, "%-18s missing from the new report\n", name)
		}
	}
	return worse, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
