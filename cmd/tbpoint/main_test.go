package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tbpoint"
	"tbpoint/internal/experiments"
	"tbpoint/internal/sampler"
	"tbpoint/internal/workloads"
)

func TestSortedRepsTruncates(t *testing.T) {
	app := tbpoint.MustBenchmark("sssp", 0.1)
	prof := tbpoint.Profile(app)
	cfg := tbpoint.DefaultSimConfig()
	cfg.NumSMs = 2
	sim := tbpoint.MustNewSimulator(cfg)
	res, err := tbpoint.Run(sim, prof, tbpoint.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	reps := sortedReps(res)
	if len(reps) > 16 {
		t.Errorf("sortedReps returned %d entries, cap is 16", len(reps))
	}
	for i := 1; i < len(reps); i++ {
		if reps[i] <= reps[i-1] {
			t.Error("reps not sorted")
		}
	}
}

func TestPrintRegionsSmoke(t *testing.T) {
	app := tbpoint.MustBenchmark("hotspot", 0.2)
	prof := tbpoint.Profile(app)
	cfg := tbpoint.DefaultSimConfig()
	cfg.NumSMs = 2
	sim := tbpoint.MustNewSimulator(cfg)
	res, err := tbpoint.Run(sim, prof, tbpoint.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// printRegions writes to stdout; just ensure it does not panic.
	printRegions(res)
}

// TestSamplerRowsMatchHarness: every row of the -samplers table is the
// outcome experiments.RunBenchmark reports for the same benchmark and
// scale, printed the same way — the CLI and the accuracy grid agree.
func TestSamplerRowsMatchHarness(t *testing.T) {
	const bench, scale = "stream", 0.05
	out := stdoutOf(t, "-bench", bench, "-scale", fmt.Sprint(scale), "-samplers", "all")

	spec, err := workloads.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	opts := experiments.DefaultOptions(scale)
	opts.Samplers = []string{"all"}
	r, err := experiments.RunBenchmark(spec, tbpoint.DefaultSimConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, name := range sampler.Names() {
		s, _ := sampler.Get(name)
		o := r.Samplers[name]
		ci := "-"
		if o.CIHalf > 0 {
			ci = fmt.Sprintf("±%.3f", o.CIHalf)
		}
		want = append(want, fmt.Sprintf("%-16s %10.3f %9.2f%% %9.2f%% %12s", s.Display,
			o.Estimate.PredictedIPC, o.Err*100, o.Estimate.SampleSize*100, ci))
	}

	_, table, ok := strings.Cut(out, "\nstrategy ")
	if !ok {
		t.Fatalf("no strategy table in:\n%s", out)
	}
	table, _, _ = strings.Cut(table, "\n\n")
	got := strings.Split(table, "\n")[1:] // drop the header's tail
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("tbpoint -samplers all rows:\n%s\nwant the harness's:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// stdoutOf runs main with the given arguments and returns what it printed.
// main parses the process-wide flag set, so a test binary can call it once.
func stdoutOf(t *testing.T, args ...string) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	oldArgs, oldStdout := os.Args, os.Stdout
	os.Args, os.Stdout = append([]string{"tbpoint"}, args...), f
	defer func() { os.Args, os.Stdout = oldArgs, oldStdout }()
	main()
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
