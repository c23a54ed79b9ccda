// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-scale f] [-seed n] [-bench a,b,c] [-v] <target>...
//
// Targets: table1 table6 fig5 fig8 fig9 fig10 fig11 fig12 fig13 accuracy
// sensitivity motivation ablations all. "accuracy" prints fig9+fig10+fig11
// from one run; "sensitivity" prints fig12+fig13 from one run; "all" runs
// everything except "ablations".
//
// Long grids are restartable: -checkpoint-dir stores what each cell is made
// of (reference run, per-strategy outcomes) as soon as it is computed;
// -resume composes every cell from it, computing only what is missing, and
// reproduces an uninterrupted run's -json output byte for byte, so it also
// finishes a run that -timeout, the one wall-time bound, cut off. Every grid
// cell runs once: one that fails or panics is recorded in the results'
// errors section while the others complete.
//
// The target engine itself lives in internal/experiments (RunTargets) and
// is shared with the tbpointd job server, so a served job with the same
// options produces a byte-identical results bundle.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"

	"tbpoint/internal/durable"
	"tbpoint/internal/experiments"
	"tbpoint/internal/metrics"
	"tbpoint/internal/par"
	"tbpoint/internal/sampler"
)

func main() {
	scale := flag.Float64("scale", 1.0, "workload scale factor (1.0 = Table VI size)")
	seed := flag.Uint64("seed", 0, "workload/baseline seed")
	bench := flag.String("bench", "", "comma-separated benchmark subset (default: all 12)")
	samplersFlag := flag.String("samplers", "", "comma-separated estimation strategies (registry: "+strings.Join(sampler.Names(), ",")+"; also 'default', 'all'; default: the random,simpoint,tbpoint trio)")
	samples := flag.Int("samples", 10000, "Monte-Carlo samples for fig5")
	verbose := flag.Bool("v", false, "progress output")
	parN := flag.Int("par", 0, "shared worker budget for independent simulations (0 = GOMAXPROCS, 1 = sequential)")
	jsonPath := flag.String("json", "", "also write results as JSON to this file")
	metricsJSON := flag.String("metrics-json", "", "collect observability metrics and write the snapshot as JSON to this file ('-' = stdout)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit); partial results are still written")
	checkpointDir := flag.String("checkpoint-dir", "", "store what each cell is made of (reference run, per-strategy outcomes) in this directory as it is computed (atomic, checksummed)")
	resume := flag.Bool("resume", false, "compose cells from what -checkpoint-dir holds, computing only what is missing")
	cacheMax := flag.Int64("cache-max-bytes", 0, "byte budget for -checkpoint-dir; LRU entries are evicted over it (0 = unbounded)")
	flag.Parse()
	experiments.Parallelism = *parN

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	// workloads.Spec.Build would run a scale <= 0 or NaN at Table VI size.
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		fail(fmt.Errorf("-scale must be finite and positive, got %g", *scale))
	}
	// A negative budget, count or duration would read as "no limit",
	// "default" or (-par) "sequential"; tbpointd refuses them too.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "cache-max-bytes", "timeout", "samples", "par":
			if strings.HasPrefix(f.Value.String(), "-") {
				fail(fmt.Errorf("-%s must not be negative, got %s", f.Name, f.Value))
			}
		}
	})

	// exitCode is applied by the first registered defer, so it runs after
	// the profile defers: profiles and JSON outputs flush, then the process
	// reports aborts and fatal target errors via the exit status.
	exitCode := 0
	defer func() {
		if exitCode != 0 {
			os.Exit(exitCode)
		}
	}()

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	targets := flag.Args()
	if len(targets) == 0 {
		fmt.Fprintf(os.Stderr, "usage: experiments [flags] <%s>...\n", strings.Join(experiments.TargetNames(), "|"))
		flag.PrintDefaults()
		os.Exit(2)
	}

	opts := experiments.DefaultOptions(*scale)
	opts.Seed = *seed
	opts.Out = os.Stdout
	opts.Verbose = *verbose
	opts.Ctx = ctx
	if *bench != "" {
		opts.Benchmarks = strings.Split(*bench, ",")
	}
	if *samplersFlag != "" {
		names, err := sampler.ParseList(*samplersFlag)
		if err != nil {
			fail(err)
		}
		opts.Samplers = names
	}
	// A checkpointed run collects too: its closing line reports what the
	// harness computed and what it took from the store.
	var mc *metrics.Collector
	if *metricsJSON != "" || *checkpointDir != "" {
		mc = metrics.New()
		opts.Metrics = mc
		par.ResetStats()
	}

	// Checkpoint/resume: what every cell is composed from (full reference,
	// per-strategy outcomes) is stored as it is computed, so a crashed or
	// killed run never redoes finished work. The store's crash hook
	// (TBPOINT_CRASH_AFTER_CHECKPOINTS) injects a real process death at the
	// Nth store write — internal/e2e uses it to prove kill-and-resume
	// reproduces an uninterrupted run bit for bit.
	var store *durable.Store
	if *checkpointDir != "" {
		var err error
		store, err = durable.Open(*checkpointDir)
		if err != nil {
			fail(err)
		}
		if q := store.Quarantined(); q > 0 {
			fmt.Fprintf(os.Stderr, "experiments: quarantined %d corrupted checkpoint record(s) in %s\n",
				q, *checkpointDir)
		}
		if err := store.ArmCrashHook(); err != nil {
			fail(err)
		}
		if *cacheMax > 0 {
			store.SetMaxBytes(*cacheMax)
		}
		opts.Checkpoint, opts.Resume = store, *resume
	} else if *resume {
		fail(errors.New("-resume requires -checkpoint-dir"))
	} else if *cacheMax > 0 {
		fail(errors.New("-cache-max-bytes requires -checkpoint-dir"))
	}

	spec := experiments.RunSpec{Targets: targets, Samples: *samples}
	bundle, runErr := experiments.RunTargets(opts, spec, os.Stdout)
	if err := store.Close(); err != nil && runErr == nil {
		runErr = err
	}

	if bundle.Aborted {
		exitCode = 1
		if err := ctx.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: run aborted:", err)
		} else {
			fmt.Fprintln(os.Stderr, "experiments: run aborted")
		}
	}
	if len(bundle.Errors) > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d grid cell(s) failed; see the errors section of -json output\n", len(bundle.Errors))
	}
	if store != nil {
		fmt.Fprintf(os.Stderr, "experiments: %d cell(s) computed; references: %d from the store, %d simulated; outcomes: %d from the store, %d computed\n",
			mc.Count(metrics.ExpCellsExecuted), mc.Count(metrics.SubcellHits), mc.Count(metrics.SubcellMisses),
			mc.Count(metrics.OutcomeHits), mc.Count(metrics.OutcomeMisses))
	}

	// Observability flushes before the exit status is decided: a run cut
	// short by SIGINT/-timeout or killed by a fatal target error (a broken
	// checkpoint directory, an unknown benchmark) still writes its
	// metrics snapshot and partial results bundle, so server-driven and
	// scripted runs stay observable.
	if *metricsJSON != "" {
		par.StatsInto(mc)
		snap := mc.Snapshot()
		bundle.Phases = snap.Phases
		bundle.Metrics = &snap
		if *metricsJSON == "-" {
			if err := snap.WriteJSON(os.Stdout); err != nil {
				fail(err)
			}
		} else if err := durable.WriteFile(*metricsJSON, snap.WriteJSON); err != nil {
			fail(err)
		}
		snap.WriteText(os.Stdout)
	}

	// Atomic even on the SIGINT/-timeout path: a partial bundle is either
	// fully on disk or not there at all, never a torn JSON prefix.
	if *jsonPath != "" {
		if err := experiments.WriteResultsFile(*jsonPath, bundle); err != nil {
			fail(err)
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "experiments:", runErr)
		exitCode = 1
	}
}
