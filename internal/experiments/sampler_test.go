package experiments

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"

	"tbpoint/internal/gpusim"
	"tbpoint/internal/sampler"
	"tbpoint/internal/workloads"
)

// TestRunBenchmarkExtended runs the full registry on one small benchmark:
// the result must carry exactly the selected strategies and every report
// section must render them.
func TestRunBenchmarkExtended(t *testing.T) {
	opts := fastOpts()
	opts.Samplers = []string{"all"}
	spec, err := workloads.ByName("stream")
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunBenchmark(spec, gpusim.DefaultConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Samplers) != len(sampler.Names()) {
		t.Fatalf("%d outcomes for %d selected strategies: %+v", len(r.Samplers), len(sampler.Names()), r.Samplers)
	}
	for _, n := range sampler.Names() {
		o, ok := r.Outcome(n)
		if !ok {
			t.Fatalf("missing outcome for %q", n)
		}
		if o.Estimate.PredictedIPC <= 0 {
			t.Errorf("%s: non-positive predicted IPC %g", n, o.Estimate.PredictedIPC)
		}
	}
	if _, ok := (&BenchResult{}).Outcome(sampler.NameTBPoint); ok {
		t.Error("outcome reported for a strategy that did not run")
	}
	strat := r.Samplers[sampler.NameStratified]
	if strat.Strata < 1 || strat.PilotUnits < 1 {
		t.Errorf("stratified accounting missing: %+v", strat)
	}

	results := []*BenchResult{r}
	var buf bytes.Buffer
	PrintFig9(&buf, results)
	PrintFig11(&buf, results)
	PrintSamplerDetail(&buf, results)
	out := buf.String()
	for _, want := range []string{"Stratified", "err(Strat)", "Systematic", "ci95"} {
		if !strings.Contains(out, want) {
			t.Errorf("extended report missing %q", want)
		}
	}

	entries := ComputePareto(results)
	if len(entries) != len(sampler.Names()) {
		t.Fatalf("pareto entries = %d", len(entries))
	}
	frontier := 0
	for _, e := range entries {
		if e.OnFrontier {
			frontier++
		}
	}
	if frontier == 0 {
		t.Error("no strategy on the Pareto frontier")
	}
}

// defaultReportPath holds the report `-scale 0.02 -seed 7 -bench
// mst,stream,black accuracy` prints with no -samplers: Fig. 9/10/11, the
// Sampler detail and the Pareto sections.
const defaultReportPath = "testdata/default_report.txt"

var update = flag.Bool("update", false, "rewrite "+defaultReportPath+" from this run instead of checking it")

// TestDefaultReportGolden pins the default selection's report to
// defaultReportPath, and checks that naming the default trio explicitly (in
// any order) is the same run — identical JSON, identical report. With
// -update it rewrites the file, unless the two runs differ.
func TestDefaultReportGolden(t *testing.T) {
	run := func(samplers []string) (report string, bundle []byte) {
		opts := DefaultOptions(0.02)
		opts.Seed = 7
		opts.Benchmarks = []string{"mst", "stream", "black"}
		opts.Samplers = samplers
		var rep, js bytes.Buffer
		res, err := RunTargets(opts, RunSpec{Targets: []string{"accuracy"}}, &rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return rep.String(), js.Bytes()
	}
	report, bundle := run(nil)
	explicitReport, explicitBundle := run([]string{"tbpoint", "simpoint", "random"})
	if explicitReport != report {
		t.Errorf("explicit trio report differs from the empty selection:\n%s\nvs\n%s", explicitReport, report)
	}
	if !bytes.Equal(explicitBundle, bundle) {
		t.Errorf("explicit trio JSON differs from the empty selection:\n%s\nvs\n%s", explicitBundle, bundle)
	}
	if *update && !t.Failed() {
		if err := os.WriteFile(defaultReportPath, []byte(report), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if want, err := os.ReadFile(defaultReportPath); err != nil {
		t.Fatalf("%v (record it with -update)", err)
	} else if report != string(want) {
		t.Errorf("default report differs from %s (re-record with -update):\n got:\n%s\nwant:\n%s", defaultReportPath, report, want)
	}
}
