// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation, plus the substrate benchmarks kept as profiling entry
// points and ablation benchmarks for the design choices called out in
// DESIGN.md. Per-layer numbers that are tracked over time (clustering,
// region identification, the memory system, metrics overhead) live in bench/,
// not here.
//
// The figure benchmarks report the experiment's headline quantities as
// custom metrics (err% — sampling error, size% — total sample size) in
// addition to wall-clock time, so `go test -bench .` regenerates the
// evaluation's shape at reduced scale; `cmd/experiments` runs the
// paper-scale version.
package tbpoint_test

import (
	"testing"

	"tbpoint"
	"tbpoint/internal/core"
	"tbpoint/internal/experiments"
	"tbpoint/internal/funcsim"
	"tbpoint/internal/gpusim"
	"tbpoint/internal/markov"
	"tbpoint/internal/trace"
	"tbpoint/internal/workloads"
)

// benchScale keeps `go test -bench .` runs in seconds; cmd/experiments
// regenerates the paper-scale numbers.
const benchScale = 0.05

func benchOpts() experiments.Options {
	o := experiments.DefaultOptions(benchScale)
	o.UnitDivisor = 200
	o.MinUnitInsts = 1000
	return o
}

// reportThroughput stops the timer and attaches the canonical warpinsts/s
// metric to b; parallel-mode cases (workers > 0) also report their worker
// count so `go test -bench` output identifies the scaling configuration.
func reportThroughput(b *testing.B, insts int64, workers int) {
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(insts)/secs, "warpinsts/s")
	}
	if workers > 0 {
		b.ReportMetric(float64(workers), "workers")
	}
}

// BenchmarkTable1SimulatorThroughput measures the simulator's speed — the
// quantity Table I projects into simulation times.
func BenchmarkTable1SimulatorThroughput(b *testing.B) {
	app := tbpoint.MustBenchmark("cfd", 0.05)
	sim := tbpoint.MustNewSimulator(tbpoint.DefaultSimConfig())
	l := app.Launches[0]
	var insts int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sim.RunLaunch(l, tbpoint.RunOptions{})
		insts += res.SimulatedWarpInsts
	}
	reportThroughput(b, insts, 0)
}

// BenchmarkTable6WorkloadConstruction measures building the full Table VI
// suite.
func BenchmarkTable6WorkloadConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range tbpoint.Benchmarks() {
			app := tbpoint.MustBenchmark(name, benchScale)
			if app.TotalBlocks() == 0 {
				b.Fatal("empty app")
			}
		}
	}
}

// BenchmarkFig5MarkovDense solves the explicit 2^N chain of Eq. 3.
func BenchmarkFig5MarkovDense(b *testing.B) {
	pr := markov.Params{P: 0.2, M: markov.UniformM(400, 6)}
	for i := 0; i < b.N; i++ {
		if ipc := markov.IPCDense(pr); ipc <= 0 {
			b.Fatal("bad IPC")
		}
	}
}

// BenchmarkFig5MonteCarlo runs the Lemma 4.1 study (10,000 samples, as in
// the paper) and reports the fraction of samples within 10% of the mean.
func BenchmarkFig5MonteCarlo(b *testing.B) {
	var within float64
	for i := 0; i < b.N; i++ {
		mc := markov.MonteCarlo(0.05, 400, 4, 10000, uint64(i))
		within = mc.Within10
	}
	b.ReportMetric(within*100, "within10%")
}

// BenchmarkFig8TBSizeProfile profiles the regular/irregular size-ratio
// series.
func BenchmarkFig8TBSizeProfile(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		series, cellErrs, err := experiments.RunFig8([]string{"conv", "mst"}, opts)
		if err != nil || len(cellErrs) != 0 || len(series) != 2 {
			b.Fatal(err, cellErrs)
		}
	}
}

// accuracyBench runs the full Fig. 9/10/11 comparison for one benchmark
// and reports its TBPoint error and sample size.
func accuracyBench(b *testing.B, name string) {
	spec, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts()
	var last *experiments.BenchResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunBenchmark(spec, gpusim.DefaultConfig(), opts)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	tb, _ := last.Outcome("tbpoint")
	b.ReportMetric(tb.Err*100, "err%")
	b.ReportMetric(tb.Estimate.SampleSize*100, "size%")
}

// BenchmarkFig9AccuracyRegular / Irregular regenerate the Fig. 9 accuracy
// comparison for one representative kernel of each type.
func BenchmarkFig9AccuracyRegular(b *testing.B)   { accuracyBench(b, "cfd") }
func BenchmarkFig9AccuracyIrregular(b *testing.B) { accuracyBench(b, "mst") }

// BenchmarkFig10SampleSize regenerates the Fig. 10 sample-size comparison
// on the launch-heavy stream benchmark.
func BenchmarkFig10SampleSize(b *testing.B) { accuracyBench(b, "stream") }

// BenchmarkFig11Breakdown reports the inter-launch share of TBPoint's
// savings for a multi-launch regular kernel (Fig. 11's dominant case).
func BenchmarkFig11Breakdown(b *testing.B) {
	spec, err := workloads.ByName("kmeans")
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts()
	var inter float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunBenchmark(spec, gpusim.DefaultConfig(), opts)
		if err != nil {
			b.Fatal(err)
		}
		tb, _ := r.Outcome("tbpoint")
		inter = tb.Estimate.InterFraction()
	}
	b.ReportMetric(inter*100, "inter%")
}

// BenchmarkFig12Sensitivity regenerates one hardware point of the
// Fig. 12/13 sweep (error and sample size under W16S8).
func BenchmarkFig12Sensitivity(b *testing.B) {
	app := tbpoint.MustBenchmark("cfd", benchScale)
	prof := tbpoint.Profile(app)
	inter := tbpoint.InterLaunch(prof, tbpoint.DefaultOptions().SigmaInter)
	cfg := tbpoint.DefaultSimConfig().WithOccupancy(16, 8)
	sim := tbpoint.MustNewSimulator(cfg)
	var errPct, sizePct float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full := tbpoint.FullSimulation(sim, app, 2000)
		res, err := tbpoint.Retarget(sim, prof, inter, tbpoint.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		errPct = res.Estimate.Error(full) * 100
		sizePct = res.Estimate.SampleSize * 100
	}
	b.ReportMetric(errPct, "err%")
	b.ReportMetric(sizePct, "size%")
}

// BenchmarkFig13RetargetOverhead measures the §V-C retargeting cost —
// re-clustering only, no re-profiling — which is the one-time-profiling
// property's payoff.
func BenchmarkFig13RetargetOverhead(b *testing.B) {
	app := tbpoint.MustBenchmark("conv", benchScale)
	prof := tbpoint.Profile(app)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, occ := range []int{28, 56, 112} {
			rt := tbpoint.IdentifyRegions(prof.Profiles[0], occ, 0.2, 0.3)
			if rt.NumRegions == 0 {
				b.Fatal("no regions")
			}
		}
	}
}

// --- Substrate micro-benchmarks ------------------------------------------

// BenchmarkRunLaunchEventLoop stresses the next-event scheduler: black is
// SFU-heavy, so warps sleep on long fixed latencies and the run loop
// spends its time on wakes, per-SM next-event updates and time jumps
// rather than in the memory system. Most of it is the per-SM wake heap
// (its bottom-up pop above all) and the instruction stream's cursor step.
func BenchmarkRunLaunchEventLoop(b *testing.B) {
	app := tbpoint.MustBenchmark("black", 0.05)
	sim := tbpoint.MustNewSimulator(tbpoint.DefaultSimConfig())
	l := app.Launches[0]
	var insts int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insts += sim.RunLaunch(l, tbpoint.RunOptions{}).SimulatedWarpInsts
	}
	reportThroughput(b, insts, 0)
}

// BenchmarkRunLaunchEventLoopParallel runs the same scheduler-bound workload
// under gpusim's epoch-synchronized parallel engine (RunOptions.Workers)
// with 8 workers at the default quantum; bench/ tracks the engine's scaling
// as gpusim.parsm2.scaling.*.
func BenchmarkRunLaunchEventLoopParallel(b *testing.B) {
	app := tbpoint.MustBenchmark("black", 0.05)
	sim := tbpoint.MustNewSimulator(tbpoint.DefaultSimConfig())
	l := app.Launches[0]
	var insts int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insts += sim.RunLaunch(l, tbpoint.RunOptions{Workers: 8}).SimulatedWarpInsts
	}
	reportThroughput(b, insts, 8)
}

// BenchmarkFullAppParallel measures the whole-app launch fan-out: the same
// multi-launch reference simulation sequentially and over the shared
// worker budget (results are deep-equal either way; the determinism tests
// pin that). It runs sssp because its 49 launches are all distinct: on an
// app that re-launches identical work (kmeans: 30 launches, 2 simulations)
// seq-vs-par would measure launch reuse, not the fan-out.
func BenchmarkFullAppParallel(b *testing.B) {
	app := tbpoint.MustBenchmark("sssp", 0.05)
	sim := tbpoint.MustNewSimulator(tbpoint.DefaultSimConfig())
	for _, workers := range []int{1, 0} { // 0 = GOMAXPROCS
		name := "seq"
		if workers == 0 {
			name = "par"
		}
		b.Run(name, func(b *testing.B) {
			old := experiments.Parallelism
			experiments.Parallelism = workers
			defer func() { experiments.Parallelism = old }()
			var insts int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run := experiments.FullApp(sim, app, 2000)
				for _, r := range run.Launches {
					insts += r.SimulatedWarpInsts
				}
			}
			reportThroughput(b, insts, 0)
		})
	}
}

func BenchmarkSimulatorMemoryBound(b *testing.B) {
	app := tbpoint.MustBenchmark("lbm", 0.01)
	benchLaunch(b, app.Launches[0])
}

// BenchmarkSimulatorIrregular simulates bfs's largest launch at benchScale:
// uncoalesced Random gathers over trace.RandFootprintB, so nearly every
// gather misses to DRAM and the MSHR files hold many outstanding fills.
func BenchmarkSimulatorIrregular(b *testing.B) {
	app := tbpoint.MustBenchmark("bfs", benchScale)
	l := app.Launches[0]
	for _, c := range app.Launches {
		if c.TotalWarpInsts() > l.TotalWarpInsts() {
			l = c
		}
	}
	benchLaunch(b, l)
}

// benchLaunch simulates l once per iteration on the default configuration,
// reporting allocations and warp-instruction throughput.
func benchLaunch(b *testing.B, l *tbpoint.Launch) {
	sim := tbpoint.MustNewSimulator(tbpoint.DefaultSimConfig())
	var insts int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insts += sim.RunLaunch(l, tbpoint.RunOptions{}).SimulatedWarpInsts
	}
	reportThroughput(b, insts, 0)
}

func BenchmarkTraceExpansion(b *testing.B) {
	app := tbpoint.MustBenchmark("black", 0.02)
	l := app.Launches[0]
	syn := trace.NewSynthetic(l)
	var addrs [trace.MaxRequests]uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := syn.WarpStream(i%l.NumBlocks(), 0)
		for {
			if _, ok := st.Next(addrs[:]); !ok {
				break
			}
		}
	}
}

// BenchmarkBuildProfileLarge is the profiling entry point for the launch
// data model: building conv at scale 8 (1.6 M thread blocks, two shapes per
// launch) and profiling it, the part of a large-scale sampled estimate that
// is per-thread-block work over identical blocks. bench/ records the
// profiling half as funcsim.profile_s.
func BenchmarkBuildProfileLarge(b *testing.B) {
	spec, err := workloads.ByName("conv")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var blocks int
	for i := 0; i < b.N; i++ {
		app := spec.Build(workloads.Config{Scale: 8})
		if len(funcsim.ProfileApp(app)) != len(app.Launches) {
			b.Fatal("a launch has no profile")
		}
		blocks = app.TotalBlocks()
	}
	b.ReportMetric(float64(blocks)*float64(b.N)/b.Elapsed().Seconds(), "tbs/s")
}

// --- Ablation benchmarks ---------------------------------------------------

// BenchmarkAblationWarming quantifies the warming-criterion refinements on
// the cache-warmup-sensitive hotspot kernel: the paper's literal single
// pairwise comparison, the default (pairwise + leverage-gated drift
// window), and a stricter variant.
func BenchmarkAblationWarming(b *testing.B) {
	variants := []struct {
		name           string
		stable, window int
	}{
		{"paper", 1, 0},
		{"default", 1, 4},
		{"strict", 2, 8},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			// Paper scale: hotspot's single region spans ~33 occupancy
			// generations there, which is what arms the default variant's
			// leverage gate.
			app := tbpoint.MustBenchmark("hotspot", 1.0)
			sim := tbpoint.MustNewSimulator(tbpoint.DefaultSimConfig())
			prof := tbpoint.Profile(app)
			opts := tbpoint.DefaultOptions()
			opts.WarmStable = v.stable
			opts.WarmWindow = v.window
			var errPct, sizePct float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				full := tbpoint.FullSimulation(sim, app, 0)
				res, err := tbpoint.Run(sim, prof, opts)
				if err != nil {
					b.Fatal(err)
				}
				errPct = res.Estimate.Error(full) * 100
				sizePct = res.Estimate.SampleSize * 100
			}
			b.ReportMetric(errPct, "err%")
			b.ReportMetric(sizePct, "size%")
		})
	}
}

// BenchmarkAblationSigmaIntra sweeps the intra-launch distance threshold —
// the accuracy/sample-size trade-off §III discusses.
func BenchmarkAblationSigmaIntra(b *testing.B) {
	for _, sig := range []struct {
		name string
		v    float64
	}{{"tight0.05", 0.05}, {"paper0.2", 0.2}, {"loose0.5", 0.5}} {
		b.Run(sig.name, func(b *testing.B) {
			app := tbpoint.MustBenchmark("bfs", 0.3)
			sim := tbpoint.MustNewSimulator(tbpoint.DefaultSimConfig())
			prof := tbpoint.Profile(app)
			opts := tbpoint.DefaultOptions()
			opts.SigmaIntra = sig.v
			var errPct, sizePct float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				full := tbpoint.FullSimulation(sim, app, 0)
				res, err := tbpoint.Run(sim, prof, opts)
				if err != nil {
					b.Fatal(err)
				}
				errPct = res.Estimate.Error(full) * 100
				sizePct = res.Estimate.SampleSize * 100
			}
			b.ReportMetric(errPct, "err%")
			b.ReportMetric(sizePct, "size%")
		})
	}
}

// BenchmarkAblationMarkovDenseVsProduct compares the paper's explicit 2^N
// chain with the closed-form product solution the package exploits.
func BenchmarkAblationMarkovDenseVsProduct(b *testing.B) {
	pr := markov.Params{P: 0.1, M: markov.UniformM(200, 8)}
	b.Run("dense2pow8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			markov.IPCDense(pr)
		}
	})
	b.Run("product", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			markov.IPCProduct(pr)
		}
	})
}

// BenchmarkAblationEnterRule compares the region-table lookup cost of the
// sampler against a run without SkipTB, bounding TBPoint's runtime overhead on
// the simulator.
func BenchmarkAblationEnterRule(b *testing.B) {
	app := tbpoint.MustBenchmark("cfd", 0.02)
	sim := tbpoint.MustNewSimulator(tbpoint.DefaultSimConfig())
	l := app.Launches[0]
	prof := tbpoint.Profile(app)
	occ := sim.Config().Limits.SystemOccupancy(l.Kernel, sim.Config().NumSMs)
	rt := tbpoint.IdentifyRegions(prof.Profiles[0], occ, 0.2, 0.3)
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim.RunLaunch(l, tbpoint.RunOptions{})
		}
	})
	b.Run("sampled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.SampleLaunch(sim, l, prof.Profiles[0], rt, nil, tbpoint.DefaultOptions())
		}
	})
}
