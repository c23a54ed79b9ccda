package experiments

import (
	"encoding/json"
	"fmt"
	"strings"

	"tbpoint/internal/core"
	"tbpoint/internal/durable"
	"tbpoint/internal/metrics"
)

// cellSchema names the shape of the journaled cell payloads (BenchResult,
// SensResult: per-strategy outcomes in one map). It is folded into every
// cell key, so a journal written under another shape misses and recomputes
// instead of decoding into results that carry no strategies.
const cellSchema = "cell/v2"

// cellKey names one grid cell in the checkpoint journal:
// grid/cell/config-hash, where the hash folds in every Options field (and
// any extra strings, e.g. the sensitivity hardware config) that determines
// the cell's result, and the estimators' outcomeSchema. A resumed run with any differing input therefore
// misses the journal and recomputes, so stale checkpoints can never leak
// into fresh results.
func (o Options) cellKey(grid, cell string, extra ...string) string {
	// The active strategy selection determines every cell's result shape,
	// so it is part of the key: a resume with a different -samplers set
	// misses and recomputes instead of surfacing cells with missing
	// strategies.
	mat := fmt.Sprintf("%s %s scale=%g seed=%d randfrac=%g unitdiv=%d min=%d max=%d tb=%+v samplers=%v",
		cellSchema, outcomeSchema, o.Scale, o.Seed, o.RandomFrac, o.UnitDivisor, o.MinUnitInsts, o.MaxUnitInsts,
		o.tbpointKeyOptions(), o.samplerNames())
	for _, e := range extra {
		mat += " " + e
	}
	return fmt.Sprintf("%s/%s/%016x", grid, cell, fnv64(mat))
}

// tbpointKeyOptions is tbpointOptions as cache keys may see it. The options
// carry a context and a metrics collector; zeroing them leaves only the
// result-determining fields (pointer values would also make a key differ
// across processes).
func (o Options) tbpointKeyOptions() core.Options {
	tb := o.tbpointOptions()
	tb.Ctx = nil
	tb.Metrics = nil
	return tb
}

// JournaledCells counts the grid cells journaled in s, leaving out the
// sub-cell cache entries that share the store.
func JournaledCells(s *durable.Store) int {
	n := 0
	for _, k := range s.Keys() {
		if !strings.HasPrefix(k, subcellPrefix) {
			n++
		}
	}
	return n
}

// resumeCell restores a journaled cell result into out. It only hits when
// the run asked to resume and the journal holds the exact key; a payload
// that fails to decode counts as a miss (the cell is recomputed), never an
// error.
func (o Options) resumeCell(key string, out interface{}) bool {
	if !o.Resume || o.Checkpoint == nil {
		return false
	}
	data, ok := o.Checkpoint.Get(key)
	if !ok {
		return false
	}
	if err := json.Unmarshal(data, out); err != nil {
		return false
	}
	o.Metrics.AtomicAdd(metrics.ExpCellsResumed, 1)
	return true
}

// journalCell records a completed cell's result. Journal failures are
// grid-fatal by design: if the checkpoint directory is broken (disk full,
// permissions, injected crash), silently continuing would burn hours of
// simulation with none of the durability the caller asked for.
func (o Options) journalCell(key string, v interface{}) error {
	if o.Checkpoint == nil {
		return nil
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("experiments: checkpoint %s: %w", key, err)
	}
	if err := o.Checkpoint.Put(key, data); err != nil {
		return fmt.Errorf("experiments: checkpoint %s: %w", key, err)
	}
	o.Metrics.AtomicAdd(metrics.ExpCheckpointsSave, 1)
	return nil
}
