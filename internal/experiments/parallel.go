package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"tbpoint/internal/gpusim"
	"tbpoint/internal/metrics"
	"tbpoint/internal/par"
	"tbpoint/internal/sampler"
)

// Parallelism controls how many workers the harness uses for independent
// work — benchmark grids, full-app launch fan-out, and the representative
// simulations inside core.Run all share this one budget (see internal/par).
// Zero means GOMAXPROCS; one forces sequential runs.
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

// gridCell is one cell of a grid: name identifies it in progress lines and
// CellErrors, and run computes it under the Options it is handed (the
// grid's, with the cell's own context).
type gridCell[T any] struct {
	name string
	run  func(Options) (T, error)
}

// runGrid is the one way a grid of independent cells runs: the cells fan out
// over the Parallelism worker budget with per-cell failure isolation — a
// cell that errors or panics becomes a CellError while the others complete,
// so one rotten cell does not take down the grid. Each cell runs exactly once
// (runCell); resuming is each cell's own business (RunBenchmark composes
// from the store). Results come back compacted in cell order and — on a
// fault-free run — do not depend on the worker count: every stochastic
// component is seeded per cell, never shared. The returned error is non-nil
// only for store-write failures (errStore) or cancellation (opts.Ctx); even
// then, results completed before the cut-off and the cell errors recorded so
// far are returned alongside it.
func runGrid[T any](opts Options, grid string, cells []gridCell[T]) ([]T, []CellError, error) {
	// Every cell writes only its own index, so failures come back in cell
	// order whatever the worker interleaving.
	out := make([]T, len(cells))
	done := make([]bool, len(cells))
	failed := make([]*CellError, len(cells))
	err := forEachIndexed(opts.Ctx, len(cells), func(i int) error {
		c := cells[i]
		start := time.Now()
		cellErr := opts.runCell(func(o Options) error {
			v, err := c.run(o)
			if err == nil {
				out[i], done[i] = v, true
			}
			return err
		})
		if cellErr == nil {
			return nil
		}
		// A broken store and the grid being torn down propagate; a fault local
		// to the cell degrades, a context error from inside it too while the
		// grid's context is alive.
		if errors.Is(cellErr, errStore) || isCancellation(cellErr) && ctxErr(opts.Ctx) != nil {
			return cellErr
		}
		opts.Metrics.AtomicAdd(metrics.ExpCellsFailed, 1)
		failed[i] = cellError(grid, c.name, cellErr, time.Since(start))
		return nil
	})
	var results []T
	var cellErrs []CellError
	for i := range cells {
		if done[i] {
			results = append(results, out[i])
		} else if failed[i] != nil {
			cellErrs = append(cellErrs, *failed[i])
		}
	}
	return results, cellErrs, err
}

// RunAccuracy runs the §V-B comparison across the selected benchmarks at the
// default (Table V) configuration, one runGrid cell per benchmark, results in
// benchmark (table) order. Setup failures are returned as the error.
func RunAccuracy(opts Options) ([]*BenchResult, []CellError, error) {
	specs, err := opts.specs()
	if err != nil {
		return nil, nil, err
	}
	cells := make([]gridCell[*BenchResult], len(specs))
	for i, spec := range specs {
		cells[i] = gridCell[*BenchResult]{
			name: spec.Name,
			run: func(o Options) (*BenchResult, error) {
				r, err := RunBenchmark(spec, gpusim.DefaultConfig(), o)
				if err == nil {
					o.progress("# %-8s full IPC %.3f | err%% / size%%:%s", r.Name, r.FullIPC, r.summary())
				}
				return r, err
			},
		}
	}
	return runGrid(opts, "accuracy", cells)
}

// RunSensitivity evaluates the selected strategies across the hardware sweep
// (§V-C): one runGrid cell per (benchmark, configuration), each the accuracy
// cell — RunBenchmark — at that configuration, with TBPoint added to the
// selection because Fig. 12/13 plot it whatever was selected. Results are
// ordered benchmarks in table order, configurations in sweep order.
func RunSensitivity(opts Options) ([]SensResult, []CellError, error) {
	specs, err := opts.specs()
	if err != nil {
		return nil, nil, err
	}
	selected := opts.samplerNames()
	var cells []gridCell[SensResult]
	for _, spec := range specs {
		for _, hc := range HWConfigs() {
			name := fmt.Sprintf("%s/%s", spec.Name, hc.Name())
			cells = append(cells, gridCell[SensResult]{
				name: name,
				run: func(o Options) (SensResult, error) {
					o.Samplers = append(selected[:len(selected):len(selected)], sampler.NameTBPoint)
					r, err := RunBenchmark(spec, hc.config(), o)
					if err != nil {
						return SensResult{}, err
					}
					tb := r.Samplers[sampler.NameTBPoint]
					res := SensResult{
						Bench:      spec.Name,
						Type:       spec.Type,
						Config:     hc,
						Err:        tb.Err,
						SampleSize: tb.Estimate.SampleSize,
						Samplers:   make(map[string]sampler.Outcome, len(selected)),
					}
					for _, n := range selected {
						res.Samplers[n] = r.Samplers[n]
					}
					o.progress("# %-8s %-7s err %.2f%% size %.1f%%",
						res.Bench, hc.Name(), res.Err*100, res.SampleSize*100)
					return res, nil
				},
			})
		}
	}
	return runGrid(opts, "sensitivity", cells)
}
