// Command tbpoint runs the TBPoint pipeline on a synthetic benchmark and
// reports what was clustered, what was sampled, and how accurate the
// prediction is against the full simulation.
//
// Usage:
//
//	tbpoint [-bench cfd] [-scale 0.2] [-warps 48] [-sms 14]
//	        [-sigma-inter 0.1] [-sigma-intra 0.2] [-vf 0.3]
//	        [-regions] [-samplers random,stratified,...]
//
// With -samplers, the named estimation strategies from the registry
// (internal/sampler) run against the full simulation, with 95% confidence
// intervals where the strategy provides them; -samplers
// random,systematic,simpoint runs the paper's baselines.
// With -regions, each representative launch's homogeneous region table is
// printed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"

	"tbpoint"
	"tbpoint/internal/durable"
	"tbpoint/internal/experiments"
	"tbpoint/internal/sampler"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tbpoint: ")

	bench := flag.String("bench", "cfd", "benchmark name")
	scale := flag.Float64("scale", 0.2, "workload scale (1.0 = Table VI size)")
	warps := flag.Int("warps", 0, "override warps per SM (0 = Table V default)")
	sms := flag.Int("sms", 0, "override SM count (0 = Table V default)")
	sigmaInter := flag.Float64("sigma-inter", 0.1, "inter-launch clustering threshold")
	sigmaIntra := flag.Float64("sigma-intra", 0.2, "intra-launch clustering threshold")
	vf := flag.Float64("vf", 0.3, "variation-factor threshold for outlier epochs")
	samplersFlag := flag.String("samplers", "", "also run these registry strategies against the full run (comma-separated; also 'default', 'all')")
	regions := flag.Bool("regions", false, "print homogeneous region tables")
	saveProfile := flag.String("save-profile", "", "write the one-time profile to this file")
	loadProfile := flag.String("load-profile", "", "reuse a one-time profile from this file instead of re-profiling")
	dumpRegions := flag.String("dump-regions", "", "write each representative launch's region table (Table III) to <file>.<launch>.json")
	list := flag.Bool("list", false, "list available benchmarks and exit")
	metricsJSON := flag.String("metrics-json", "", "collect observability metrics and write the snapshot as JSON to this file ('-' = stdout)")
	showMetrics := flag.Bool("metrics", false, "collect observability metrics and print the summary table")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	flag.Parse()

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *list {
		for _, n := range tbpoint.Benchmarks() {
			fmt.Println(n)
		}
		return
	}

	app, err := tbpoint.Benchmark(*bench, *scale)
	if err != nil {
		log.Fatalf("%v (use -list to see benchmarks)", err)
	}
	cfg := tbpoint.DefaultSimConfig()
	if *warps > 0 || *sms > 0 {
		w, s := cfg.Limits.MaxWarps, cfg.NumSMs
		if *warps > 0 {
			w = *warps
		}
		if *sms > 0 {
			s = *sms
		}
		cfg = cfg.WithOccupancy(w, s)
	}
	sim, err := tbpoint.NewSimulator(cfg)
	if err != nil {
		log.Fatal(err)
	}

	opts := tbpoint.DefaultOptions()
	opts.Ctx = ctx
	opts.SigmaInter = *sigmaInter
	opts.SigmaIntra = *sigmaIntra
	opts.VarFactor = *vf
	var mc *tbpoint.Collector
	if *metricsJSON != "" || *showMetrics {
		mc = tbpoint.NewCollector()
		opts.Metrics = mc
	}

	fmt.Printf("%s @ scale %g on %s: %d launches, %d thread blocks, %d warp insts\n",
		app.Name, *scale, cfg.Name(), len(app.Launches), app.TotalBlocks(), app.TotalWarpInsts())

	var prof *tbpoint.AppProfile
	if *loadProfile != "" {
		var err error
		prof, err = tbpoint.LoadProfileFile(*loadProfile, app)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("reusing one-time profile from %s\n", *loadProfile)
	} else {
		prof = tbpoint.ProfileMetrics(app, mc)
	}
	if *saveProfile != "" {
		if err := tbpoint.SaveProfileFile(*saveProfile, prof); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("one-time profile saved to %s\n", *saveProfile)
	}
	res, err := tbpoint.Run(sim, prof, opts)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			log.Fatalf("run aborted (%v); nothing to report", err)
		}
		log.Fatal(err)
	}
	if *dumpRegions != "" {
		for _, rep := range res.Inter.RepLaunches() {
			path := fmt.Sprintf("%s.%d.json", *dumpRegions, rep)
			err := durable.WriteFile(path, func(w io.Writer) error {
				return tbpoint.WriteRegionTable(w, res.Tables[rep])
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("region table of launch %d written to %s\n", rep, path)
		}
	}

	fmt.Printf("inter-launch: %d clusters, representatives %v\n",
		res.Inter.NumClusters, sortedReps(res))
	if *regions {
		printRegions(res)
	}

	unit := experiments.DefaultOptions(*scale).UnitSize(app.TotalWarpInsts())
	full := tbpoint.FullSimulationCtx(ctx, sim, app, unit, mc)
	if full.Aborted {
		log.Fatal("run aborted during the full reference simulation; no comparison to report")
	}
	est := res.Estimate
	fmt.Printf("\n%-16s %10s %10s %10s\n", "technique", "IPC", "error", "sample")
	fmt.Printf("%-16s %10.3f %10s %10s\n", "Full", full.IPC(), "-", "100%")
	fmt.Printf("%-16s %10.3f %9.2f%% %9.2f%%\n",
		"TBPoint", est.PredictedIPC, est.Error(full)*100, est.SampleSize*100)
	if *samplersFlag != "" {
		names, err := sampler.ParseList(*samplersFlag)
		if err != nil {
			log.Fatal(err)
		}
		set, err := sampler.Resolve(names)
		if err != nil {
			log.Fatal(err)
		}
		in := sampler.Input{
			Ctx:     ctx,
			Sim:     sim,
			Prof:    prof,
			Full:    full,
			Params:  sampler.Params{Frac: 0.10, Seed: 42, Sigma: *sigmaInter},
			TBPoint: opts,
		}
		fmt.Printf("\n%-16s %10s %10s %10s %12s\n", "strategy", "IPC", "error", "sample", "ci95(IPC)")
		for _, s := range set {
			var out sampler.Outcome
			if s.Name() == sampler.NameTBPoint {
				// The pipeline already ran above; reuse its estimate.
				out = sampler.Outcome{Estimate: est, Strata: res.Inter.NumClusters}
			} else {
				out, err = s.Estimate(in)
				if err != nil {
					log.Fatal(err)
				}
			}
			ci := "-"
			if out.CIHalf > 0 {
				ci = fmt.Sprintf("±%.3f", out.CIHalf)
			}
			fmt.Printf("%-16s %10.3f %9.2f%% %9.2f%% %12s\n", s.Display(),
				out.Estimate.PredictedIPC, out.Estimate.Error(full)*100,
				out.Estimate.SampleSize*100, ci)
		}
	}
	fmt.Printf("\nTBPoint savings: %.0f%% inter-launch, %.0f%% intra-launch\n",
		est.InterFraction()*100, (1-est.InterFraction())*100)
	if est.Error(full) > 0.15 {
		fmt.Fprintln(os.Stderr, "warning: sampling error above 15%; consider tighter thresholds")
	}

	if mc != nil {
		snap := mc.Snapshot()
		if *metricsJSON == "-" {
			if err := snap.WriteJSON(os.Stdout); err != nil {
				log.Fatal(err)
			}
		} else if *metricsJSON != "" {
			if err := durable.WriteFile(*metricsJSON, snap.WriteJSON); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\nmetrics snapshot written to %s\n", *metricsJSON)
		}
		if *showMetrics {
			fmt.Println()
			snap.WriteText(os.Stdout)
		}
	}
}

func sortedReps(res *tbpoint.Result) []int {
	reps := res.Inter.RepLaunches()
	if len(reps) > 16 {
		return reps[:16]
	}
	return reps
}

func printRegions(res *tbpoint.Result) {
	for _, rep := range res.Inter.RepLaunches() {
		rt := res.Tables[rep]
		fmt.Printf("launch %d (occupancy %d): %d region IDs\n", rep, rt.Occupancy, rt.NumRegions)
		runs := rt.Regions()
		for i, r := range runs {
			if i >= 12 {
				fmt.Printf("  ... %d more runs\n", len(runs)-i)
				break
			}
			fmt.Printf("  blocks [%5d, %5d) -> region %d\n", r.Start, r.End, r.ID)
		}
		if s, ok := res.Samples[rep]; ok {
			fmt.Printf("  sampled: %d/%d insts simulated, %d warm units, %d regions fast-forwarded\n",
				s.SimulatedInsts, s.TotalInsts, s.WarmUnits, len(s.RegionIPC))
		}
	}
}
