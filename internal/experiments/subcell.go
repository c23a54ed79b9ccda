package experiments

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"tbpoint/internal/gpusim"
	"tbpoint/internal/kernel"
	"tbpoint/internal/metrics"
	"tbpoint/internal/sampling"
)

// fullReference is fullAppCtx with the full reference run shared through
// the checkpoint store at its own key when Options.Subcell is on. The
// reference dominates a benchmark cell's wall time, so it is the one
// intermediate worth storing: two jobs whose grids overlap without being
// cell-identical (different sampler set, different budget) then share it
// instead of re-simulating. The cheaper intermediates (profile, features,
// clustering) cost more to store than to recompute and are not cached.
//
// Key layout (in the cell store, so the -cache-max-bytes bound covers it):
//
//	subcell/v1/fullref/<bench>/<hash(scale, seed)>/<hash(unit, hw config)>
//
// i.e. the built workload — benchmark name in the clear for debuggability —
// plus everything else that changes the run's bytes: the sampling-unit
// size and the full simulator configuration.
// LaunchResult is all integer counters, so the JSON round-trip is exact and
// a cache hit is byte-identical to a recompute.
//
// Lookups obey Resume and count one subcell.hits or subcell.misses into mc;
// a decoded run whose shape does not match the live workload is a miss, so
// a colliding or stale key degrades to work, never to wrong results.
// Publishing is best-effort: a failed write only costs future reuse, and a
// real storage fault also surfaces through the fatal cell-journal write
// that follows.
func (o Options) fullReference(bench string, sim *gpusim.Simulator, app *kernel.App,
	unit int64, mc *metrics.Collector, cfg gpusim.Config) *sampling.AppRun {
	if !o.Subcell || o.Checkpoint == nil {
		return fullAppCtx(o.Ctx, sim, app, unit, mc, 0, 0)
	}
	appHash, runHash := fnv.New64a(), fnv.New64a()
	fmt.Fprintf(appHash, "scale=%g seed=%d", o.Scale, o.Seed)
	fmt.Fprintf(runHash, "unit=%d cfg=%+v", unit, cfg)
	key := fmt.Sprintf("subcell/v1/fullref/%s/%016x/%016x", bench, appHash.Sum64(), runHash.Sum64())
	if o.Resume {
		var run sampling.AppRun
		data, ok := o.Checkpoint.Get(key)
		if ok && json.Unmarshal(data, &run) == nil && completeRun(&run, app) {
			mc.AtomicAdd(metrics.SubcellHits, 1)
			return &run
		}
		mc.AtomicAdd(metrics.SubcellMisses, 1)
	}
	full := fullAppCtx(o.Ctx, sim, app, unit, mc, 0, 0)
	if !full.Aborted {
		if data, err := json.Marshal(full); err == nil {
			_ = o.Checkpoint.Put(key, data) // best-effort, see above
		}
	}
	return full
}

// completeRun reports whether a decoded reference run covers every launch
// of app.
func completeRun(run *sampling.AppRun, app *kernel.App) bool {
	if run.Aborted || len(run.Launches) != len(app.Launches) {
		return false
	}
	for _, l := range run.Launches {
		if l == nil {
			return false
		}
	}
	return true
}
