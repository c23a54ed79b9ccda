package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"

	"tbpoint/internal/core"
	"tbpoint/internal/durable"
	"tbpoint/internal/gpusim"
	"tbpoint/internal/kernel"
	"tbpoint/internal/metrics"
	"tbpoint/internal/sampler"
	"tbpoint/internal/sampling"
)

// outcomeSchema versions the stored per-strategy outcomes. It is part of
// every outcome's key material, so a change to any estimator's arithmetic
// must bump it: entries written by the old arithmetic then miss instead of
// being served. v2: Random's CI counts the units it selected.
const outcomeSchema = "outcome/v2"

// subcell addresses one benchmark cell's entries in Options.Checkpoint, the
// store every run over it shares — repeated, resumed or merely overlapping
// (another sampler set or budget). A cell is a composition of three kinds
// of entry and is never stored whole:
//
//	subcell/v1/fullref/<bench>/<hash(scale, seed)>/<hash(unit rule, hw config)>
//	subcell/v1/refhdr/<bench>/<hash(scale, seed)>/<hash(unit rule, hw config)>
//	subcell/v1/outcome/<bench>/<hash(scale, seed)>/<hash(outcomeSchema,
//	    unit rule, hw config, sampler params, TBPoint options)>/<sampler>
//
// fullref is the full reference run (13-100 KB of units and BBVs), refhdr
// the two IPCs a result takes from it, and outcome one strategy's
// sampler.Outcome. The unit rule (Options.unitRule), not the unit it
// derives, is in the keys, so RunBenchmark reads the header, then each
// selected outcome, and only when something is missing builds the workload,
// fetches and decodes the heavy artifact (or simulates) and runs just the
// missing strategies. The cheaper intermediates (profile, features,
// clustering) cost more to store than to recompute and are not cached.
//
// The benchmark name and the strategy are in the clear for debuggability;
// the hashes cover everything else that changes the entry's bytes. Header
// and outcome entries also carry their un-hashed key material and a hit
// requires it to match, and a decoded run must account for every block and
// instruction of the live workload (completeRun), so a colliding, stale or
// damaged entry degrades to work, never to a wrong number. LaunchResult is
// all integer counters and Go's float formatting round-trips, so a hit is
// byte-identical to a recompute.
//
// Lookups obey Resume; a miss is counted wherever the value is computed
// instead. An entry is published only where its value was just computed,
// and a failed write is returned wrapping errStore. A nil *subcell is the
// disabled store: every load misses, nothing is published or counted.
type subcell struct {
	store  *durable.Store
	resume bool
	bench  string
	appMat string // what determines the built workload
	runMat string // ... the full reference run on it
	outMat string // ... every strategy's outcome on that run
}

func (o Options) subcell(bench string, cfg gpusim.Config) *subcell {
	if o.Checkpoint == nil {
		return nil
	}
	div, lo, hi := o.unitRule()
	c := &subcell{
		store:  o.Checkpoint,
		resume: o.Resume,
		bench:  bench,
		appMat: fmt.Sprintf("scale=%g seed=%d", o.Scale, o.Seed),
		runMat: fmt.Sprintf("unit=total/%d in [%d,%d] cfg=%+v", div, lo, hi, cfg),
	}
	c.outMat = fmt.Sprintf("%s %s params=%+v tb=%+v", outcomeSchema, c.runMat, o.samplerParams(), o.tbpointKeyOptions())
	return c
}

// key names c's entry of the given kind (and strategy, for an outcome).
func (c *subcell) key(kind, name string) string {
	k := fmt.Sprintf("subcell/v1/%s/%s/%016x/%016x", kind, c.bench, fnv64(c.appMat), fnv64(c.material(kind)))
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

// publish stores v as c's header or outcome entry. A value JSON cannot
// encode (a NaN) is not shared; a failed write is returned.
func (c *subcell) publish(kind, name string, v interface{}) error {
	if c == nil {
		return nil
	}
	value, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	data, _ := json.Marshal(subcellEntry{c.appMat + " " + c.material(kind), value}) // valid JSON in, so no error
	return c.put(c.key(kind, name), data)
}

// errStore marks a failed write to Options.Checkpoint. It is fatal to the
// run, never a cell fault: runGrid neither retries it nor degrades it to a
// CellError, because a broken store (disk full, permissions, an injected
// crash) would otherwise burn hours of simulation with none of the
// durability the caller asked for.
var errStore = errors.New("experiments: store write failed")

func (c *subcell) put(key string, data []byte) error {
	if err := c.store.Put(key, data); err != nil {
		return fmt.Errorf("%w: %s: %w", errStore, key, err)
	}
	return nil
}

// loadOutcome is load for one strategy's outcome, counting outcome.hits or
// outcome.misses (the strategy will be estimated) into mc.
func (c *subcell) loadOutcome(name string, mc *metrics.Collector) (sampler.Outcome, bool) {
	if c == nil {
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
// with the run shared through c's fullref entry. It counts the cell's one
// subcell.hits (run decoded from the store) or subcell.misses (simulated)
// into mc; the bool reports whether it simulated. A run cut short by o.Ctx
// is returned as the context's error, never as a partial run.
func (o Options) fullReference(c *subcell, sim *gpusim.Simulator, app *kernel.App,
	unit int64, mc *metrics.Collector) (*sampling.AppRun, bool, error) {
	if c != nil && c.resume {
		if data, ok := c.store.Get(c.key("fullref", "")); ok {
			if run := decodeRun(data); run != nil && completeRun(run, app) {
				mc.AtomicAdd(metrics.SubcellHits, 1)
				return run, false, nil
			}
		}
	}
	if c != nil {
		mc.AtomicAdd(metrics.SubcellMisses, 1)
	}
	full, launches := fullApp(o.Ctx, sim, app, unit, mc, 0, 0)
	o.progress("# %-8s full reference: simulated %d of %d launches", app.Name, launches, len(app.Launches))
	if full.Aborted {
		if err := ctxErr(o.Ctx); err != nil {
			return nil, true, err
		}
		return nil, true, context.Canceled
	}
	if c != nil {
		if data, err := json.Marshal(full); err == nil {
			if err := c.put(c.key("fullref", ""), data); err != nil {
				return nil, true, err
			}
		}
	}
	return full, true, nil
}

// tbpointKeyOptions is tbpointOptions as store keys may see it. The options
// carry a context and a metrics collector; zeroing them leaves only the
// result-determining fields (pointer values would also make a key differ
// across processes).
func (o Options) tbpointKeyOptions() core.Options {
	tb := o.tbpointOptions()
	tb.Ctx = nil
	tb.Metrics = nil
	return tb
}

// decodeRun decodes a stored reference run, json.Marshal of a whole run
// from fullApp, or returns nil. Launches whose encodings are equal decode
// once and share one *LaunchResult, as fullApp left launches with equal
// input, so a run of 100 identical launches costs one launch decode, not
// 100. The launches are split without a JSON scan of the whole run: each is
// validated when it is decoded, and anything but the written layout misses.
func decodeRun(data []byte) *sampling.AppRun {
	const head, tail = `{"Launches":[`, `],"Aborted":false}`
	if !bytes.HasPrefix(data, []byte(head)) || !bytes.HasSuffix(data, []byte(tail)) {
		return nil
	}
	rest := data[len(head) : len(data)-len(tail)]
	run := &sampling.AppRun{}
	seen := make(map[string]*gpusim.LaunchResult)
	for len(rest) > 0 {
		n := objectLen(rest)
		if n == 0 {
			return nil
		}
		e := rest[:n]
		l, ok := seen[string(e)]
		if !ok {
			if json.Unmarshal(e, &l) != nil {
				return nil
			}
			seen[string(e)] = l
		}
		run.Launches = append(run.Launches, l)
		if rest = rest[n:]; len(rest) > 0 {
			if rest[0] != ',' || len(rest) == 1 {
				return nil
			}
			rest = rest[1:]
		}
	}
	return run
}

// objectLen is the length of the JSON object data starts with, found by
// bracket depth outside strings, or 0 if data does not start with one.
func objectLen(data []byte) int {
	if len(data) == 0 || data[0] != '{' {
		return 0
	}
	depth, inString := 0, false
	for i := 0; i < len(data); i++ {
		switch c := data[i]; {
		case inString && c == '\\':
			i++
		case c == '"':
			inString = !inString
		case inString:
		case c == '{' || c == '[':
			depth++
		case c == '}' || c == ']':
			if depth--; depth == 0 {
				return i + 1
			}
		}
	}
	return 0
}

// completeRun reports whether a decoded reference run is a whole run of app:
// each launch simulated to the end, every thread block and every warp
// instruction of its app launch, and nothing skipped. A run stored for
// another workload (a different seed's, under a colliding key) fails it.
func completeRun(run *sampling.AppRun, app *kernel.App) bool {
	if run.Aborted || len(run.Launches) != len(app.Launches) {
		return false
	}
	for i, l := range run.Launches {
		if l == nil || l.Aborted || l.SkippedTBs != 0 || l.SimulatedTBs != app.Launches[i].NumBlocks() ||
			l.SimulatedWarpInsts != app.Launches[i].TotalWarpInsts() {
			return false
		}
	}
	return true
}
