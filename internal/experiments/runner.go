package experiments

// runner.go is the target-execution engine shared by cmd/experiments and
// the job server (internal/server): one function runs a named set of paper
// targets under one Options, prints the familiar reports, and assembles the
// Results bundle. It was extracted from cmd/experiments precisely so that a
// job served by tbpointd and a one-shot CLI invocation with the same
// options produce byte-identical bundles by construction — they execute the
// same code in the same order.

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"tbpoint/internal/metrics"
)

// target is one entry of the target table: run computes the target under
// opts and files its output into the report w and the bundle b.
type target struct {
	name string
	// optIn keeps the target out of "all" (the ablations audit).
	optIn bool
	run   func(opts Options, spec RunSpec, w io.Writer, b *Results) error
}

// gridTarget makes a grid's target: its cell errors join the bundle's, and
// whatever cells completed are printed and kept, even when the grid was cut
// short.
func gridTarget[T any](run func(Options, RunSpec) ([]T, []CellError, error), keep func(io.Writer, *Results, []T)) func(Options, RunSpec, io.Writer, *Results) error {
	return func(opts Options, spec RunSpec, w io.Writer, b *Results) error {
		results, cellErrs, err := run(opts, spec)
		b.Errors = append(b.Errors, cellErrs...)
		if err == nil || len(results) > 0 {
			keep(w, b, results)
		}
		return err
	}
}

// targets lists every target in the order RunTargets runs them.
var targets = []target{
	{name: "table6", run: func(opts Options, _ RunSpec, w io.Writer, b *Results) error {
		rows, err := RunTable6(opts)
		if err == nil {
			PrintTable6(w, rows, opts.Scale)
			b.Table6 = rows
		}
		return err
	}},
	{name: "table1", run: func(opts Options, _ RunSpec, w io.Writer, b *Results) error {
		// Table I times the simulator, so it is one sequential measurement,
		// into a private collector merged afterwards so the aggregate never
		// sees hot-path writes — a live Snapshot of opts.Metrics (the
		// server's progress endpoint) must only race against
		// Merge/AtomicAdd, which are safe.
		var mc *metrics.Collector
		if opts.Metrics != nil {
			mc = metrics.New()
		}
		b.Table1 = RunTable1PerKernelMetrics(clampScale(opts.Scale, 0.05), mc)
		opts.Metrics.Merge(mc)
		PrintTable1(w, b.Table1)
		return nil
	}},
	{name: "fig5", run: gridTarget(func(opts Options, spec RunSpec) ([]Fig5Result, []CellError, error) {
		return RunFig5(opts, spec.Samples)
	}, func(w io.Writer, b *Results, r []Fig5Result) {
		PrintFig5(w, r)
		b.Fig5 = r
	})},
	{name: "fig8", run: gridTarget(func(opts Options, _ RunSpec) ([]Fig8Series, []CellError, error) {
		return RunFig8([]string{"conv", "mst"}, opts)
	}, func(w io.Writer, b *Results, r []Fig8Series) {
		PrintFig8(w, r)
		b.Fig8 = r
	})},
	{name: "ablations", optIn: true, run: gridTarget(func(opts Options, _ RunSpec) ([]AblationResult, []CellError, error) {
		return RunAblations(opts)
	}, func(w io.Writer, b *Results, r []AblationResult) {
		PrintAblations(w, r)
		b.Ablations = r
	})},
	{name: "motivation", run: gridTarget(func(opts Options, _ RunSpec) ([]MotivationResult, []CellError, error) {
		return RunMotivation(opts)
	}, func(w io.Writer, b *Results, r []MotivationResult) {
		PrintMotivation(w, r)
		b.Motivation = r
	})},
	{name: "accuracy", run: gridTarget(func(opts Options, _ RunSpec) ([]*BenchResult, []CellError, error) {
		return RunAccuracy(opts)
	}, func(w io.Writer, b *Results, r []*BenchResult) {
		PrintFig9(w, r)
		PrintFig10(w, r)
		PrintFig11(w, r)
		PrintSamplerDetail(w, r)
		b.Accuracy = r
		b.Pareto = ComputePareto(r)
		PrintPareto(w, b.Pareto)
	})},
	{name: "sensitivity", run: gridTarget(func(opts Options, _ RunSpec) ([]SensResult, []CellError, error) {
		return RunSensitivity(opts)
	}, func(w io.Writer, b *Results, r []SensResult) {
		PrintFig12(w, r)
		PrintFig13(w, r)
		PrintSensSamplers(w, r)
		b.Sensitivity = r
	})},
}

// aliases are the figure targets that name part of a grid's output: they
// pull in the grid that produces it.
var aliases = map[string]string{
	"fig9": "accuracy", "fig10": "accuracy", "fig11": "accuracy",
	"fig12": "sensitivity", "fig13": "sensitivity",
}

// TargetNames returns every accepted target name, sorted — for usage and
// error messages.
func TargetNames() []string {
	names := []string{"all"}
	for _, t := range targets {
		names = append(names, t.name)
	}
	for a := range aliases {
		names = append(names, a)
	}
	sort.Strings(names)
	return names
}

// ExpandTargets resolves a target list into the set of targets to run: "all"
// expands to every target but the opt-in ones, and a figure alias pulls in
// the grid it shares. An unknown name is an error — a job naming a target
// that does not exist should fail at submission, not silently run nothing.
func ExpandTargets(names []string) (map[string]bool, error) {
	if len(names) == 0 {
		return nil, errors.New("experiments: no targets named")
	}
	want := map[string]bool{}
	for _, n := range names {
		if g, ok := aliases[n]; ok {
			want[n], n = true, g
		}
		known := n == "all"
		for _, t := range targets {
			if t.name == n || n == "all" && !t.optIn {
				want[t.name], known = true, true
			}
		}
		if !known {
			return nil, fmt.Errorf("experiments: unknown target %q (known: %s)",
				n, strings.Join(TargetNames(), " "))
		}
	}
	return want, nil
}

// RunSpec names what RunTargets should run, plus the knobs that are not
// Options fields (they are CLI flags / job-spec fields).
type RunSpec struct {
	// Targets are the target names, expanded via ExpandTargets.
	Targets []string
	// Samples is the fig5 Monte-Carlo sample count (<= 0 selects 10000, the
	// CLI default).
	Samples int
}

// RunTargets executes the named targets in target-table order under opts,
// writing report text to w (nil discards it) and returning the assembled
// Results bundle. The bundle is always non-nil and holds everything
// completed before any cut-off, so callers can persist partial results.
//
// A grid cell that fails is one CellError in the bundle; the run goes on.
// Cancellation (opts.Ctx) is not an error: remaining targets are skipped
// and the bundle comes back with Aborted set. A fatal fault — setup
// failure, store-write failure — stops the run and is returned alongside
// the partial bundle.
func RunTargets(opts Options, spec RunSpec, w io.Writer) (*Results, error) {
	bundle := &Results{Scale: opts.Scale, Seed: opts.Seed}
	want, err := ExpandTargets(spec.Targets)
	if err != nil {
		return bundle, err
	}
	if w == nil {
		w = io.Discard
	}
	if spec.Samples <= 0 {
		spec.Samples = 10000
	}
	var fatal error
	for _, t := range targets {
		if !want[t.name] || fatal != nil || ctxErr(opts.Ctx) != nil {
			continue
		}
		sw := opts.Metrics.StartPhase("target." + t.name)
		if err := t.run(opts, spec, w, bundle); err != nil && !isCancellation(err) {
			fatal = err
		}
		sw.Stop()
	}
	bundle.Aborted = ctxErr(opts.Ctx) != nil
	return bundle, fatal
}

// clampScale caps the calibration workload used for throughput measurement;
// Table I only needs the rate, not a paper-scale run.
func clampScale(s, max float64) float64 {
	if s > max {
		return max
	}
	return s
}
