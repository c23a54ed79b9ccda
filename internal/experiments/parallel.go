package experiments

import (
	"context"
	"fmt"

	"tbpoint/internal/core"
	"tbpoint/internal/gpusim"
	"tbpoint/internal/metrics"
	"tbpoint/internal/par"
	"tbpoint/internal/workloads"
)

// Parallelism controls how many workers the harness uses for independent
// work — benchmark grids, full-app launch fan-out, and the representative
// simulations inside core.Retarget all share this one budget (see
// internal/par). Zero means GOMAXPROCS; one forces sequential runs.
var Parallelism = 0

// forEachIndexed runs fn(i) for i in [0, n) on the shared worker budget,
// returning the error from the lowest failing index (deterministic
// regardless of worker interleaving; all indices are attempted so no
// goroutine leaks). A cancelled ctx stops new indices from being claimed
// and is returned when no task error outranks it; nil ctx disables
// cancellation.
func forEachIndexed(ctx context.Context, n int, fn func(i int) error) error {
	par.SetLimit(Parallelism)
	return par.ForEachCtx(ctx, n, fn)
}

// gridCancelled decides whether a cell's error is the grid being torn down
// (propagate) or a fault local to the cell (degrade to CellError). A cell
// can die of its own CellDeadline — a context error — while the grid
// context is perfectly alive, so the grid's own state is what decides.
func gridCancelled(opts Options, cellErr error) bool {
	return isCancellation(cellErr) && ctxErr(opts.Ctx) != nil
}

// RunAccuracy runs the §V-B comparison across the selected benchmarks at the
// default (Table V) configuration, with the per-benchmark work fanned out
// over the Parallelism worker budget and per-cell failure isolation: a
// benchmark that errors or panics becomes a CellError while the others
// complete, so one rotten cell does not take down the grid. Failed cells are
// retried under opts.Retry before they degrade, and completed cells are
// journaled to opts.Checkpoint (and skipped on opts.Resume) so a crashed
// grid never redoes finished work. Results are returned compacted in
// benchmark (table) order and — on a fault-free run — do not depend on the
// worker count: every stochastic component is seeded per benchmark, never
// shared. The returned error is non-nil only for setup failures,
// checkpoint-write failures, or cancellation (opts.Ctx); even then, results
// completed before the cut-off and the cell errors recorded so far are
// returned alongside it.
func RunAccuracy(opts Options) ([]*BenchResult, []CellError, error) {
	specs, err := opts.specs()
	if err != nil {
		return nil, nil, err
	}
	out := make([]*BenchResult, len(specs))
	rec := &cellRecorder{grid: "accuracy"}
	err = forEachIndexed(opts.Ctx, len(specs), func(i int) error {
		key := opts.cellKey("accuracy", specs[i].Name)
		var cached BenchResult
		if opts.resumeCell(key, &cached) {
			out[i] = &cached
			opts.progress("# %-8s resumed from checkpoint", cached.Name)
			return nil
		}
		meta, cellErr := opts.runCellWithRetry(i, func(ctx context.Context) error {
			cellOpts := opts
			cellOpts.Ctx = ctx
			r, err := RunBenchmark(specs[i], gpusim.DefaultConfig(), cellOpts)
			if err != nil {
				return err
			}
			opts.progress("# %-8s full IPC %.3f | err%% / size%%:%s", r.Name, r.FullIPC, r.summary())
			out[i] = r
			return nil
		})
		if cellErr == nil {
			opts.Metrics.AtomicAdd(metrics.ExpCellsExecuted, 1)
			return opts.journalCell(key, out[i])
		}
		if gridCancelled(opts, cellErr) {
			return cellErr
		}
		opts.Metrics.AtomicAdd(metrics.ExpCellsFailed, 1)
		rec.record(i, specs[i].Name, cellErr, meta)
		return nil
	})
	var results []*BenchResult
	for _, r := range out {
		if r != nil {
			results = append(results, r)
		}
	}
	return results, rec.sorted(), err
}

// RunSensitivity evaluates the selected strategies across the hardware sweep
// (TBPoint with one-time profiling, §V-C), fanning the (benchmark x
// configuration) grid out over the worker budget with the same per-cell
// failure isolation, retry policy, and checkpoint/resume behaviour as
// RunAccuracy; each cell is independent. Results are ordered benchmarks in
// table order, configurations in sweep order, with failed cells compacted
// out and reported as CellErrors.
func RunSensitivity(opts Options) ([]SensResult, []CellError, error) {
	specs, err := opts.specs()
	if err != nil {
		return nil, nil, err
	}
	configs := HWConfigs()
	type cell struct {
		spec *workloads.Spec
		hc   HWConfig
	}
	var cells []cell
	for _, s := range specs {
		for _, hc := range configs {
			cells = append(cells, cell{s, hc})
		}
	}
	out := make([]SensResult, len(cells))
	done := make([]bool, len(cells))
	// Resolve checkpoints first: a fully resumed benchmark never needs its
	// profile rebuilt, so a resume of a finished grid does no simulation
	// work at all.
	keys := make([]string, len(cells))
	resumed := make([]bool, len(cells))
	needProfile := map[string]bool{}
	for i, c := range cells {
		keys[i] = opts.cellKey("sensitivity",
			fmt.Sprintf("%s/%s", c.spec.Name, c.hc.Name()),
			fmt.Sprintf("hw=%+v", c.hc))
		var cached SensResult
		if opts.resumeCell(keys[i], &cached) {
			out[i] = cached
			done[i] = true
			resumed[i] = true
			opts.progress("# %-8s %-7s resumed from checkpoint", cached.Bench, c.hc.Name())
			continue
		}
		needProfile[c.spec.Name] = true
	}
	// Profiles are shared per benchmark; precompute them once (cheap,
	// analytic) so workers only simulate.
	type prep struct {
		prof  *core.AppProfile
		inter *core.InterResult
	}
	preps := map[string]*prep{}
	for _, s := range specs {
		if !needProfile[s.Name] {
			continue
		}
		app := s.Build(workloads.Config{Scale: opts.Scale, Seed: opts.Seed})
		prof := core.ProfileApp(app)
		preps[s.Name] = &prep{
			prof:  prof,
			inter: core.InterLaunch(prof.Profiles, opts.tbpointOptions().SigmaInter),
		}
	}
	rec := &cellRecorder{grid: "sensitivity"}
	err = forEachIndexed(opts.Ctx, len(cells), func(i int) error {
		if resumed[i] {
			return nil
		}
		c := cells[i]
		meta, cellErr := opts.runCellWithRetry(i, func(ctx context.Context) error {
			p := preps[c.spec.Name]
			cfg := gpusim.DefaultConfig().WithOccupancy(c.hc.Warps, c.hc.SMs)
			sim, err := gpusim.New(cfg)
			if err != nil {
				return err
			}
			full := fullAppCtx(ctx, sim, p.prof.App, opts.unitSize(p.prof.App.TotalWarpInsts()), nil, 0, 0)
			if full.Aborted {
				if err := ctxErr(ctx); err != nil {
					return err
				}
				return context.Canceled
			}
			tbopts := opts.tbpointOptions()
			tbopts.Ctx = ctx
			res, err := core.Retarget(sim, p.prof, p.inter, tbopts)
			if err != nil {
				return err
			}
			out[i] = SensResult{
				Bench:      c.spec.Name,
				Type:       c.spec.Type,
				Config:     c.hc,
				Err:        res.Estimate.Error(full),
				SampleSize: res.Estimate.SampleSize,
				Samplers:   opts.sensSamplers(sim, p.prof, p.inter, full, res.Estimate),
			}
			done[i] = true
			opts.progress("# %-8s %-7s err %.2f%% size %.1f%%",
				out[i].Bench, c.hc.Name(), out[i].Err*100, out[i].SampleSize*100)
			return nil
		})
		if cellErr == nil {
			opts.Metrics.AtomicAdd(metrics.ExpCellsExecuted, 1)
			return opts.journalCell(keys[i], out[i])
		}
		if gridCancelled(opts, cellErr) {
			return cellErr
		}
		opts.Metrics.AtomicAdd(metrics.ExpCellsFailed, 1)
		rec.record(i, fmt.Sprintf("%s/%s", c.spec.Name, c.hc.Name()), cellErr, meta)
		return nil
	})
	var results []SensResult
	for i := range cells {
		if done[i] {
			results = append(results, out[i])
		}
	}
	return results, rec.sorted(), err
}
