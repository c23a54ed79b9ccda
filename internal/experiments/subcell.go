package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"

	"tbpoint/internal/durable"
	"tbpoint/internal/gpusim"
	"tbpoint/internal/kernel"
	"tbpoint/internal/metrics"
	"tbpoint/internal/sampler"
	"tbpoint/internal/sampling"
)

// outcomeSchema versions the stored per-strategy outcomes. It is part of
// every outcome's and every journaled cell's key material, so a change to
// any estimator's arithmetic must bump it (as cellSchema was bumped for the
// cell payloads): entries written by the old arithmetic then miss instead of
// being served. v2: Random's CI counts the units it selected.
const outcomeSchema = "outcome/v2"

// subcellPrefix starts every sub-cell cache key; no grid is named "subcell",
// so it separates the cache's entries from the journaled cells.
const subcellPrefix = "subcell/"

// subcell addresses one benchmark cell's entries in the sub-cell cache, the
// part of the checkpoint store (so the -cache-max-bytes bound covers it)
// that runs share when their grids overlap without being cell-identical
// (different sampler set, different budget). A cell is a composition of
// three kinds of entry:
//
//	subcell/v1/fullref/<bench>/<hash(scale, seed)>/<hash(unit, hw config)>
//	subcell/v1/refhdr/<bench>/<hash(scale, seed)>/<hash(unit, hw config)>
//	subcell/v1/outcome/<bench>/<hash(scale, seed)>/<hash(outcomeSchema, unit,
//	    hw config, sampler params, TBPoint options)>/<sampler>
//
// fullref is the full reference run (13-100 KB of units and BBVs), refhdr
// the two IPCs a result takes from it, and outcome one strategy's
// sampler.Outcome. RunBenchmark reads the header, then each selected
// outcome, and only when something is missing fetches and decodes the heavy
// artifact (or simulates) and runs just the missing strategies. The cheaper
// intermediates (profile, features, clustering) cost more to store than to
// recompute and are not cached.
//
// The benchmark name and the strategy are in the clear for debuggability;
// the hashes cover everything else that changes the entry's bytes. Header
// and outcome entries also carry their un-hashed key material and a hit
// requires it to match, and a decoded run must have the live workload's
// shape, so a colliding, stale or damaged entry degrades to work, never to a
// wrong number. LaunchResult is all integer counters and Go's float
// formatting round-trips, so a hit is byte-identical to a recompute.
//
// Lookups obey Resume. Publishing is best-effort and happens only where the
// value was just computed: a failed write costs future reuse, and a real
// storage fault also surfaces through the fatal cell-journal write that
// follows. A nil *subcell is the disabled cache: every load misses,
// nothing is published.
type subcell struct {
	store  *durable.Store
	resume bool
	bench  string
	appMat string // what determines the built workload
	runMat string // ... the full reference run on it
	outMat string // ... every strategy's outcome on that run
}

func (o Options) subcell(bench string, unit int64, cfg gpusim.Config) *subcell {
	if !o.Subcell || o.Checkpoint == nil {
		return nil
	}
	c := &subcell{
		store:  o.Checkpoint,
		resume: o.Resume,
		bench:  bench,
		appMat: fmt.Sprintf("scale=%g seed=%d", o.Scale, o.Seed),
		runMat: fmt.Sprintf("unit=%d cfg=%+v", unit, cfg),
	}
	c.outMat = fmt.Sprintf("%s %s params=%+v tb=%+v", outcomeSchema, c.runMat, o.samplerParams(), o.tbpointKeyOptions())
	return c
}

// key names c's entry of the given kind (and strategy, for an outcome).
func (c *subcell) key(kind, name string) string {
	k := fmt.Sprintf("%sv1/%s/%s/%016x/%016x", subcellPrefix, kind, c.bench, fnv64(c.appMat), fnv64(c.material(kind)))
	if name != "" {
		k += "/" + name
	}
	return k
}

func (c *subcell) material(kind string) string {
	if kind == "outcome" {
		return c.outMat
	}
	return c.runMat
}

func fnv64(s string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, s)
	return h.Sum64()
}

// subcellEntry is the stored form of a header or an outcome.
type subcellEntry struct {
	Material string          `json:"material"`
	Value    json.RawMessage `json:"value"`
}

// refHeader is what a BenchResult takes from its full reference run.
type refHeader struct {
	FullIPC        float64 `json:"full_ipc"`
	FullOverallIPC float64 `json:"full_overall_ipc"`
}

// load decodes c's header or outcome entry into v; v may be left half-filled
// on a miss.
func (c *subcell) load(kind, name string, v interface{}) bool {
	if c == nil || !c.resume {
		return false
	}
	var e subcellEntry
	data, ok := c.store.Get(c.key(kind, name))
	return ok && json.Unmarshal(data, &e) == nil &&
		e.Material == c.appMat+" "+c.material(kind) && json.Unmarshal(e.Value, v) == nil
}

func (c *subcell) publish(kind, name string, v interface{}) {
	if c == nil {
		return
	}
	value, err := json.Marshal(v)
	if err != nil {
		return
	}
	if data, err := json.Marshal(subcellEntry{c.appMat + " " + c.material(kind), value}); err == nil {
		_ = c.store.Put(c.key(kind, name), data) // best-effort, see subcell
	}
}

// loadOutcome is load for one strategy's outcome, counting the lookup as
// outcome.hits or outcome.misses into mc.
func (c *subcell) loadOutcome(name string, mc *metrics.Collector) (sampler.Outcome, bool) {
	if c == nil || !c.resume {
		return sampler.Outcome{}, false
	}
	var out sampler.Outcome
	if c.load("outcome", name, &out) {
		mc.AtomicAdd(metrics.OutcomeHits, 1)
		return out, true
	}
	mc.AtomicAdd(metrics.OutcomeMisses, 1)
	return sampler.Outcome{}, false
}

// fullReference is the harness's one producer of a reference run: fullApp
// with the run shared through c's fullref entry. Under Resume it counts the
// cell's one subcell.hits (run decoded from the store) or subcell.misses
// (simulated) into mc. A run cut short by o.Ctx is returned as the context's
// error, never as a partial run.
func (o Options) fullReference(c *subcell, sim *gpusim.Simulator, app *kernel.App,
	unit int64, mc *metrics.Collector) (*sampling.AppRun, error) {
	if c != nil && c.resume {
		var run sampling.AppRun
		data, ok := c.store.Get(c.key("fullref", ""))
		if ok && json.Unmarshal(data, &run) == nil && completeRun(&run, app) {
			mc.AtomicAdd(metrics.SubcellHits, 1)
			return &run, nil
		}
		mc.AtomicAdd(metrics.SubcellMisses, 1)
	}
	full, simulated := fullApp(o.Ctx, sim, app, unit, mc, 0, 0)
	o.progress("# %-8s full reference: simulated %d of %d launches", app.Name, simulated, len(app.Launches))
	if full.Aborted {
		if err := ctxErr(o.Ctx); err != nil {
			return nil, err
		}
		return nil, context.Canceled
	}
	if c != nil {
		if data, err := json.Marshal(full); err == nil {
			_ = c.store.Put(c.key("fullref", ""), data) // best-effort, see subcell
		}
	}
	return full, nil
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
