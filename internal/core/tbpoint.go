package core

import (
	"context"
	"fmt"

	"tbpoint/internal/gpusim"
	"tbpoint/internal/metrics"
	"tbpoint/internal/par"
	"tbpoint/internal/sampling"
)

// Options are TBPoint's tuning parameters, with the paper's evaluated
// values as defaults (§V-A).
type Options struct {
	// SigmaInter is the inter-launch clustering distance threshold (0.1).
	SigmaInter float64
	// SigmaIntra is the epoch clustering distance threshold (0.2).
	SigmaIntra float64
	// VarFactor is the outlier-epoch variation-factor threshold (0.3).
	VarFactor float64
	// WarmTol is the warming-period IPC stability tolerance (0.10).
	WarmTol float64
	// InterBBV appends each launch's normalised basic-block vector to the
	// Eq. 2 inter-launch features — the extension the paper's footnote 2
	// leaves to future work. It improves accuracy for launches whose
	// aggregate counters coincide but whose code paths differ, at the cost
	// of extra representatives.
	InterBBV bool
	// WarmStable is the number of consecutive within-tolerance unit
	// comparisons required before fast-forwarding starts (the paper uses
	// one, the default).
	WarmStable int
	// WarmWindow adds a trend check to the warming criterion: besides the
	// pairwise comparison, the current unit's IPC must be within
	// WarmTol/4 of the unit WarmWindow positions earlier. Consecutive
	// units of a slowly drifting system (e.g. DRAM row-buffer ecology
	// still converging) can each pass a pairwise 10% test while the IPC
	// climbs far beyond 10% in total; the window catches the drift. Zero
	// disables the check (the paper's literal criterion); the ablation
	// benchmarks quantify the trade-off.
	WarmWindow int
	// WarmWindowMinRegion gates the trend check by leverage: it applies
	// only inside regions spanning at least this many occupancy
	// generations. Short regions cannot amortise the extra warming units
	// the trend check costs (and their fast-forwarded share is small, so a
	// drift bias barely matters); long regions are exactly where a drift
	// bias multiplies into a large error.
	WarmWindowMinRegion int
	// Ctx, when non-nil, makes the pipeline cancellable: the representative
	// fan-out stops claiming new launches once Ctx is cancelled, in-flight
	// representative simulations abort at their next sampling-unit boundary,
	// and Run/Retarget return Ctx's error instead of a Result. A nil (or
	// never-cancelled) Ctx leaves the pipeline bit-identical.
	Ctx context.Context
	// Metrics, when non-nil, receives the pipeline's observability data:
	// per-phase wall time (core.inter_cluster, core.region_sampling,
	// core.predict), pipeline counters (launches, clusters, regions,
	// warming units, simulated vs skipped instructions) and every
	// representative simulation's gpusim counters. Representative
	// simulations running in parallel each record into a private collector
	// that is merged in deterministic (representative) order afterwards, so
	// the counter totals are independent of worker interleaving.
	Metrics *metrics.Collector
}

// DefaultOptions returns the paper's configuration (plus WarmWindow = 4,
// see its doc comment).
func DefaultOptions() Options {
	return Options{SigmaInter: 0.1, SigmaIntra: 0.2, VarFactor: 0.3,
		WarmTol: 0.10, WarmStable: 1, WarmWindow: 4, WarmWindowMinRegion: 24}
}

// Result is the outcome of the full TBPoint pipeline on one application
// under one simulated configuration.
type Result struct {
	Inter *InterResult
	// Tables maps representative launch index -> its region table.
	Tables map[int]*RegionTable
	// Samples maps representative launch index -> its sampled simulation.
	Samples map[int]*LaunchSample
	// Estimate is the application-level prediction in the shared format.
	Estimate sampling.Estimate
}

// Run executes TBPoint end to end:
//
//  1. inter-launch sampling clusters the launches and picks representatives
//     (one-time profiling supplied via prof);
//  2. for each representative, homogeneous region identification builds the
//     region table at the configuration's system occupancy;
//  3. each representative launch is simulated with homogeneous region
//     sampling;
//  4. the application totals are predicted per Table IV: non-representative
//     launches inherit their representative's IPC, fast-forwarded regions
//     their warming-period IPC.
func Run(sim *gpusim.Simulator, prof *AppProfile, opts Options) (*Result, error) {
	return runWithInter(sim, prof, nil, nil, opts)
}

// RunWithReference is Run for a caller that already holds full, the complete
// reference simulation of prof.App on sim (read-only; nil is Run). The Result
// is the same, value for value: full decides only how it is computed — a
// representative launch on which region sampling fast-forwards nothing takes
// its sample from full's result for that launch instead of repeating the
// simulation (see SampleLaunch), and is counted in core.launches_replayed.
func RunWithReference(sim *gpusim.Simulator, prof *AppProfile, full *sampling.AppRun, opts Options) (*Result, error) {
	return runWithInter(sim, prof, nil, full, opts)
}

// Retarget re-runs TBPoint for a different hardware configuration while
// reusing the one-time profile and an existing inter-launch clustering:
// "the kernel characteristics do not change when the system occupancy
// changes", so only region identification (at the new occupancy) and the
// representative simulations are redone (§V-C).
func Retarget(sim *gpusim.Simulator, prof *AppProfile, inter *InterResult, opts Options) (*Result, error) {
	if inter == nil {
		return nil, fmt.Errorf("core: Retarget requires an existing inter-launch clustering")
	}
	return runWithInter(sim, prof, inter, nil, opts)
}

func runWithInter(sim *gpusim.Simulator, prof *AppProfile, inter *InterResult, full *sampling.AppRun, opts Options) (*Result, error) {
	if len(prof.App.Launches) == 0 {
		return nil, fmt.Errorf("core: application has no launches")
	}
	if len(prof.Profiles) != len(prof.App.Launches) {
		return nil, fmt.Errorf("core: profile/launch count mismatch (%d vs %d)",
			len(prof.Profiles), len(prof.App.Launches))
	}
	mc := opts.Metrics
	if inter == nil {
		sw := mc.StartPhase("core.inter_cluster")
		if opts.InterBBV {
			inter = InterLaunchBBV(prof.Profiles, opts.SigmaInter)
		} else {
			inter = InterLaunch(prof.Profiles, opts.SigmaInter)
		}
		sw.Stop()
	}
	res := &Result{
		Inter:   inter,
		Tables:  map[int]*RegionTable{},
		Samples: map[int]*LaunchSample{},
	}

	// Representative launches are independent simulations, so they fan out
	// over the shared worker budget (internal/par); the tables and samples
	// are assembled sequentially in representative order afterwards, so the
	// Result is identical to a sequential run.
	cfg := sim.Config()
	reps := res.Inter.RepLaunches()
	tables := make([]*RegionTable, len(reps))
	samples := make([]*LaunchSample, len(reps))
	// Each representative records into a private collector; merging in rep
	// order after the join keeps the totals worker-interleaving-independent.
	var mcs []*metrics.Collector
	if mc != nil {
		mcs = make([]*metrics.Collector, len(reps))
		for i := range mcs {
			mcs[i] = metrics.New()
		}
	}
	// refs[i] is the caller's reference simulation of representative i, if any.
	refs := make([]*gpusim.LaunchResult, len(reps))
	if full != nil && len(full.Launches) == len(prof.App.Launches) {
		for i, rep := range reps {
			refs[i] = full.Launches[rep]
		}
	}
	sw := mc.StartPhase("core.region_sampling")
	err := par.ForEachCtx(opts.Ctx, len(reps), func(i int) error {
		rep := reps[i]
		l := prof.App.Launches[rep]
		occ := cfg.Limits.SystemOccupancy(l.Kernel, cfg.NumSMs)
		rt := IdentifyRegions(prof.Profiles[rep], occ, opts.SigmaIntra, opts.VarFactor)
		tables[i] = rt
		ropts := opts
		if mcs != nil {
			ropts.Metrics = mcs[i]
		}
		samples[i] = SampleLaunch(sim, l, prof.Profiles[rep], rt, refs[i], ropts)
		if samples[i].Result.Aborted {
			return opts.Ctx.Err()
		}
		return nil
	})
	sw.Stop()
	if err != nil {
		return nil, err
	}
	for i, rep := range reps {
		res.Tables[rep] = tables[i]
		res.Samples[rep] = samples[i]
	}
	if mc != nil {
		for _, c := range mcs {
			mc.Merge(c)
		}
		mc.Add(metrics.CoreLaunches, uint64(len(prof.App.Launches)))
		mc.Add(metrics.CoreClusters, uint64(res.Inter.NumClusters))
		mc.Add(metrics.CoreRepLaunches, uint64(len(reps)))
		for i := range reps {
			mc.Add(metrics.CoreRegions, uint64(tables[i].NumRegions))
			mc.Add(metrics.CoreWarmUnits, uint64(samples[i].WarmUnits))
			mc.Add(metrics.CoreSimulatedInsts, uint64(samples[i].SimulatedInsts))
			mc.Add(metrics.CoreSkippedInsts, uint64(samples[i].SkippedInsts))
			if samples[i].Result == refs[i] {
				mc.Inc(metrics.CoreLaunchesReplayed)
			}
		}
	}

	swp := mc.StartPhase("core.predict")
	defer swp.Stop()
	est := &res.Estimate
	est.Technique = "TBPoint"
	var totalInsts, simInsts int64
	var predCycles float64
	for li, lp := range prof.Profiles {
		insts := lp.TotalWarpInsts()
		totalInsts += insts
		rep := res.Inter.RepOf(li)
		s := res.Samples[rep]
		if li == rep {
			simInsts += s.SimulatedInsts
			predCycles += s.PredictedCycles
			est.SkippedIntraInsts += s.SkippedInsts
			continue
		}
		// Non-representative launch: IPC predicted equal to its cluster's
		// simulated representative (Table IV); cycles scale with size.
		ipc := s.PredictedIPC()
		if ipc > 0 {
			predCycles += float64(insts) / ipc
		}
		est.SkippedInterInsts += insts
	}
	est.PredictedCycles = predCycles
	if predCycles > 0 {
		est.PredictedIPC = float64(totalInsts) / predCycles
	}
	if totalInsts > 0 {
		est.SampleSize = float64(simInsts) / float64(totalInsts)
	}
	return res, nil
}
