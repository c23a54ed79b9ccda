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

// allTargets is what the "all" shorthand expands to (everything except
// "ablations", which is an opt-in audit).
var allTargets = []string{"table1", "table6", "fig5", "fig8", "motivation", "accuracy", "sensitivity"}

// knownTargets is the full vocabulary accepted by ExpandTargets.
var knownTargets = map[string]bool{
	"all": true, "table1": true, "table6": true, "fig5": true, "fig8": true,
	"fig9": true, "fig10": true, "fig11": true, "fig12": true, "fig13": true,
	"motivation": true, "ablations": true, "accuracy": true, "sensitivity": true,
}

// TargetNames returns every accepted target name, sorted — for usage and
// error messages.
func TargetNames() []string {
	names := make([]string, 0, len(knownTargets))
	for n := range knownTargets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ExpandTargets resolves a target list into the set of work to run: "all"
// expands, and the grouped figure targets (fig9/10/11 share the accuracy
// run, fig12/13 the sensitivity run) pull in their umbrella target. An
// unknown name is an error — a job naming a target that does not exist
// should fail at submission, not silently run nothing.
func ExpandTargets(targets []string) (map[string]bool, error) {
	if len(targets) == 0 {
		return nil, errors.New("experiments: no targets named")
	}
	want := map[string]bool{}
	for _, t := range targets {
		if !knownTargets[t] {
			return nil, fmt.Errorf("experiments: unknown target %q (known: %s)",
				t, strings.Join(TargetNames(), " "))
		}
		if t == "all" {
			for _, x := range allTargets {
				want[x] = true
			}
			continue
		}
		want[t] = true
	}
	// Grouped targets share one expensive run.
	if want["fig9"] || want["fig10"] || want["fig11"] {
		want["accuracy"] = true
	}
	if want["fig12"] || want["fig13"] {
		want["sensitivity"] = true
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

// RunTargets executes the named targets under opts, writing report text to
// w (nil discards it) and returning the assembled Results bundle. The
// bundle is always non-nil and holds everything completed before any
// cut-off, so callers can persist partial results.
//
// Cancellation (opts.Ctx) is not an error: remaining targets are skipped
// and the bundle comes back with Aborted set. A fatal fault — setup
// failure, checkpoint-write failure — stops the run and is returned
// alongside the partial bundle.
func RunTargets(opts Options, spec RunSpec, w io.Writer) (*Results, error) {
	bundle := &Results{Scale: opts.Scale, Seed: opts.Seed}
	want, err := ExpandTargets(spec.Targets)
	if err != nil {
		return bundle, err
	}
	if w == nil {
		w = io.Discard
	}
	samples := spec.Samples
	if samples <= 0 {
		samples = 10000
	}
	mc := opts.Metrics

	// aborted records a run cut short by cancellation; fatal an error that
	// must stop the run. Either way the targets already completed stay in
	// the bundle.
	aborted := false
	var fatal error
	dead := func() bool {
		if ctxErr(opts.Ctx) != nil {
			aborted = true
		}
		return aborted
	}
	// handle classifies a target's error: cancellation marks the run
	// aborted, anything else is fatal. It returns true when the target
	// completed cleanly.
	handle := func(err error) bool {
		if err == nil {
			return true
		}
		if isCancellation(err) {
			aborted = true
			return false
		}
		fatal = err
		return false
	}
	run := func(name string, f func()) {
		if want[name] && fatal == nil && !dead() {
			f()
		}
	}

	run("table6", func() {
		sw := mc.StartPhase("target.table6")
		rows, err := RunTable6(opts)
		sw.Stop()
		if handle(err) {
			PrintTable6(w, rows, opts.Scale)
			bundle.Table6 = rows
		}
	})
	run("table1", func() {
		sw := mc.StartPhase("target.table1")
		// Table I measures into a private collector merged afterwards so the
		// aggregate never sees hot-path writes — a live Snapshot of mc (the
		// server's progress endpoint) must only race against Merge/AtomicAdd,
		// which are safe.
		var t1mc *metrics.Collector
		if mc != nil {
			t1mc = metrics.New()
		}
		t1 := RunTable1PerKernelMetrics(clampScale(opts.Scale, 0.05), t1mc)
		mc.Merge(t1mc)
		sw.Stop()
		PrintTable1(w, t1)
		bundle.Table1 = t1
	})
	run("fig5", func() {
		f5 := RunFig5(samples, opts.Seed+5)
		PrintFig5(w, f5)
		bundle.Fig5 = f5
	})
	run("fig8", func() {
		sw := mc.StartPhase("target.fig8")
		series, err := RunFig8([]string{"conv", "mst"}, opts)
		sw.Stop()
		if handle(err) {
			PrintFig8(w, series)
			bundle.Fig8 = series
		}
	})
	run("ablations", func() {
		sw := mc.StartPhase("target.ablations")
		results, err := RunAblations(opts)
		sw.Stop()
		if handle(err) {
			PrintAblations(w, results)
			bundle.Ablations = results
		}
	})
	run("motivation", func() {
		sw := mc.StartPhase("target.motivation")
		results, err := RunMotivation(opts)
		sw.Stop()
		if handle(err) {
			PrintMotivation(w, results)
			bundle.Motivation = results
		}
	})
	run("accuracy", func() {
		sw := mc.StartPhase("target.accuracy")
		results, cellErrs, err := RunAccuracy(opts)
		sw.Stop()
		bundle.Errors = append(bundle.Errors, cellErrs...)
		if handle(err) || len(results) > 0 {
			PrintFig9(w, results)
			PrintFig10(w, results)
			PrintFig11(w, results)
			PrintSamplerDetail(w, results)
			bundle.Accuracy = results
			bundle.Pareto = ComputePareto(results)
			PrintPareto(w, bundle.Pareto)
		}
	})
	run("sensitivity", func() {
		sw := mc.StartPhase("target.sensitivity")
		results, cellErrs, err := RunSensitivity(opts)
		sw.Stop()
		bundle.Errors = append(bundle.Errors, cellErrs...)
		if handle(err) || len(results) > 0 {
			PrintFig12(w, results)
			PrintFig13(w, results)
			PrintSensSamplers(w, results)
			bundle.Sensitivity = results
		}
	})

	bundle.Aborted = dead()
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
