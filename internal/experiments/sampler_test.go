package experiments

import (
	"bytes"
	"strings"
	"testing"

	"tbpoint/internal/gpusim"
	"tbpoint/internal/sampler"
	"tbpoint/internal/workloads"
)

func TestCellKeyFoldsSamplers(t *testing.T) {
	base := fastOpts()
	def := base.cellKey("accuracy", "stream")

	explicit := base
	explicit.Samplers = []string{"tbpoint", "simpoint", "random"}
	if got := explicit.cellKey("accuracy", "stream"); got != def {
		t.Errorf("explicit default trio changed the cell key:\n%s\n%s", def, got)
	}

	ext := base
	ext.Samplers = []string{"all"}
	if got := ext.cellKey("accuracy", "stream"); got == def {
		t.Error("extended selection did not change the cell key")
	}
}

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

// defaultTablesGolden is the Fig. 9/10/11 text the commit before the
// single result shape printed for `-scale 0.02 -seed 7 -bench
// mst,stream,black accuracy` with no -samplers.
const defaultTablesGolden = `Figure 9: Overall IPC (whole-GPU) and sampling error
bench    type  full IPC  overall(per-SM)  Random  Ideal-Simpoint  TBPoint  err(Rand)  err(SP)  err(TBP)
-------  ----  --------  ---------------  ------  --------------  -------  ---------  -------  --------
mst      I     0.200     0.501            0.193   0.234           0.201    3.68%      16.99%   0.35%
stream   II    0.433     0.446            0.432   0.423           0.423    0.17%      2.28%    2.27%
black    II    12.539    12.708           12.867  12.835          12.366   2.61%      2.36%    1.38%
geomean                                                                    1.18%      4.50%    1.03%
mean                                                                       2.16%      7.21%    1.33%
max                                                                        3.68%      16.99%   2.27%
paper geomeans: Random 7.95%, Ideal-Simpoint 1.74%, TBPoint 0.47%

Figure 10: Total sample size (simulated / total warp instructions)
bench    type  Random  Ideal-Simpoint  TBPoint
-------  ----  ------  --------------  -------
mst      I     9.34%   58.08%          76.32%
stream   II    9.81%   0.46%           0.46%
black    II    10.05%  10.78%          42.16%
geomean        9.73%   6.61%           11.40%
paper geomeans: Random 10%, Ideal-Simpoint 5.4%, TBPoint 2.6%

Figure 11: Breakdown of skipped instructions (inter vs intra launch)
bench   type  TBP inter%  TBP intra%  SP inter%  SP intra%
------  ----  ----------  ----------  ---------  ---------
mst     I     100.00%     0.00%       100.00%    0.00%
stream  II    100.00%     0.00%       100.00%    0.00%
black   II    0.00%       100.00%     0.00%      100.00%

`

// TestDefaultReportGolden pins the default selection's report: the three
// paper tables are what they were before the result shapes merged, the
// sections that follow them are present, and naming the default trio
// explicitly (in any order) is the same run — identical JSON, identical
// report.
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
	if !strings.HasPrefix(report, defaultTablesGolden) {
		t.Errorf("default Fig. 9/10/11 text changed:\n got:\n%s\nwant prefix:\n%s", report, defaultTablesGolden)
	}
	rest := strings.TrimPrefix(report, defaultTablesGolden)
	if !strings.HasPrefix(rest, "Sampler detail:") || !strings.Contains(rest, "\nPareto:") {
		t.Errorf("sections after Fig. 11 = %q, want Sampler detail then Pareto", rest)
	}
	explicitReport, explicitBundle := run([]string{"tbpoint", "simpoint", "random"})
	if explicitReport != report {
		t.Errorf("explicit trio report differs from the empty selection:\n%s\nvs\n%s", explicitReport, report)
	}
	if !bytes.Equal(explicitBundle, bundle) {
		t.Errorf("explicit trio JSON differs from the empty selection:\n%s\nvs\n%s", explicitBundle, bundle)
	}
}
