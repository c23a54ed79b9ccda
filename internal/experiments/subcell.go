package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

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
// or to the entry's layout must bump it: entries written by the old code
// then miss instead of being served. v2: Random's CI counts the units it
// selected. v3: an entry carries its reference run's two IPCs.
const outcomeSchema = "outcome/v3"

// subcell addresses one benchmark cell's entries in Options.Checkpoint, the
// store every run over it shares — repeated, resumed or merely overlapping
// (another sampler set or budget). A cell is a composition of two kinds of
// entry and is never stored whole:
//
//	subcell/v1/fullref/<bench>/<hash(scale, seed)>/<hash(unit rule, hw config)>
//	subcell/v1/outcome/<bench>/<hash(scale, seed)>/<hash(outcomeSchema,
//	    unit rule, hw config, sampler params, TBPoint options)>/<sampler>
//
// fullref is the full reference run (13-100 KB of units and BBVs), and
// outcome one strategy's sampler.Outcome with the two IPCs of the reference
// run its Err is measured against. The unit rule (Options.unitRule), not the
// unit it derives, is in the keys, so RunBenchmark reads each selected
// outcome, and only when one is missing builds the workload, fetches and
// decodes the heavy artifact (or simulates) and runs just the missing
// strategies. The cheaper intermediates (profile, features, clustering) cost
// more to store than to recompute and are not cached.
//
// The benchmark name and the strategy are in the clear for debuggability;
// the hashes cover everything else that changes the entry's bytes. An
// outcome entry also carries its un-hashed key material and a hit requires
// it to match, and a decoded run must account for every block and
// instruction of the live workload (completeRun), so a colliding, stale or
// damaged entry degrades to work, never to a wrong number. LaunchResult is
// all integer counters and Go's float formatting round-trips, so a hit is
// byte-identical to a recompute.
//
// Lookups obey Resume; a miss is counted wherever the value is computed
// instead. An entry is published only where its value was just computed,
// and a failed write is returned wrapping errStore. A nil *subcell is the
// disabled store: every lookup misses, nothing is published or counted.
type subcell struct {
	store    *durable.Store
	resume   bool
	refKey   string // the fullref entry's key
	outKey   string // the outcome entries' key, less the strategy name
	material string // what determines every outcome, stored in each entry
}

func (o Options) subcell(bench string, cfg gpusim.Config) *subcell {
	if o.Checkpoint == nil {
		return nil
	}
	div, lo, hi := o.unitRule()
	app := fmt.Sprintf("scale=%g seed=%d", o.Scale, o.Seed)
	run := fmt.Sprintf("unit=total/%d in [%d,%d] cfg=%+v", div, lo, hi, cfg)
	out := fmt.Sprintf("%s %s params=%+v tb=%+v", outcomeSchema, run, o.samplerParams(), o.tbpointKeyOptions())
	// subcell/v1/<kind>/<bench>/<fnv64(app) %016x>/<fnv64(mat) %016x><end>,
	// written by hand: through fmt every hash would be boxed.
	key := func(kind, mat, end string) string {
		b := append(make([]byte, 0, 96), "subcell/v1/"+kind+"/"+bench...)
		for _, h := range [2]uint64{fnv64(app), fnv64(mat)} {
			b = append(b, '/')
			for shift := 60; shift >= 0; shift -= 4 {
				b = append(b, "0123456789abcdef"[h>>shift&15])
			}
		}
		return string(append(b, end...))
	}
	return &subcell{
		store:    o.Checkpoint,
		resume:   o.Resume,
		refKey:   key("fullref", run, ""),
		outKey:   key("outcome", out, "/"),
		material: app + " " + out,
	}
}

// fnv64 is 64-bit FNV-1a, computed in place: hash/fnv would allocate a
// hasher and a copy of s on every call.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// outcomeEntry is the stored form of one strategy's outcome.
type outcomeEntry struct {
	Material       string          `json:"material"`
	Outcome        sampler.Outcome `json:"outcome"`
	FullIPC        float64         `json:"full_ipc"`
	FullOverallIPC float64         `json:"full_overall_ipc"`
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

// loadOutcome reads one strategy's outcome entry, counting outcome.hits or
// outcome.misses (the strategy will be estimated) into mc.
func (c *subcell) loadOutcome(name string, mc *metrics.Collector) (outcomeEntry, bool) {
	var e outcomeEntry
	if c == nil {
		return e, false
	}
	if c.resume {
		if data, ok := c.store.Get(c.outKey + name); ok && json.Unmarshal(data, &e) == nil && e.Material == c.material {
			mc.AtomicAdd(metrics.OutcomeHits, 1)
			return e, true
		}
	}
	mc.AtomicAdd(metrics.OutcomeMisses, 1)
	return outcomeEntry{}, false
}

// publishOutcome stores one strategy's outcome with r's reference IPCs. An
// entry JSON cannot encode (a NaN) is not shared; a failed write is
// returned.
func (c *subcell) publishOutcome(name string, out sampler.Outcome, r *BenchResult) error {
	if c == nil {
		return nil
	}
	data, err := json.Marshal(outcomeEntry{c.material, out, r.FullIPC, r.FullOverallIPC})
	if err != nil {
		return nil
	}
	return c.put(c.outKey+name, data)
}

// fullReference is the harness's one producer of a reference run: fullApp
// with the run shared through c's fullref entry. It counts the cell's one
// subcell.hits (run decoded from the store) or subcell.misses (simulated)
// into mc. A run cut short by o.Ctx is returned as the context's error,
// never as a partial run.
func (o Options) fullReference(c *subcell, sim *gpusim.Simulator, app *kernel.App,
	unit int64, mc *metrics.Collector) (*sampling.AppRun, error) {
	if c != nil && c.resume {
		if data, ok := c.store.Get(c.refKey); ok {
			if run := decodeRun(data); run != nil && completeRun(run, app) {
				mc.AtomicAdd(metrics.SubcellHits, 1)
				return run, nil
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
			return nil, err
		}
		return nil, context.Canceled
	}
	if c != nil {
		if data, err := json.Marshal(full); err == nil {
			if err := c.put(c.refKey, data); err != nil {
				return nil, err
			}
		}
	}
	return full, nil
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
// Decoding the array into []json.RawMessage instead measured 3.6-4.1x
// slower on spmv's and cfd's stored runs.
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
