package gpusim

import (
	"math/bits"

	"tbpoint/internal/isa"
)

// memSystem glues per-SM L1 caches, the shared L2 and DRAM into one access
// path. All latencies are absolute completion cycles so the SM scheduler
// can simply sleep the issuing warp until the returned cycle.
//
// Two second-order mechanisms are modelled beyond the raw hierarchy:
//
//   - MSHR merging: a request to a line that already has an outstanding
//     miss completes when the outstanding fill returns instead of paying a
//     fresh round trip (one MSHR file per SM);
//   - write-back traffic: evicting a dirty line issues a DRAM write that
//     occupies the bank and adds queueing pressure for subsequent reads.
type memSystem struct {
	cfg   Config
	l1    []cache
	l2    *cache
	dram  *dram
	mshrs []mshrTable // per SM: line -> fill completion cycle

	MSHRMerges int64
}

func newMemSystem(cfg Config) *memSystem {
	m := &memSystem{
		cfg:  cfg,
		l2:   newCache(cfg.L2),
		dram: newDRAM(cfg.DRAM),
	}
	m.l1 = make([]cache, cfg.NumSMs)
	m.mshrs = make([]mshrTable, cfg.NumSMs)
	for i := range m.l1 {
		m.l1[i] = *newCache(cfg.L1)
		m.mshrs[i].reset()
	}
	return m
}

// reset clears all cache, DRAM and MSHR state so the memSystem can be
// reused for a fresh launch.
func (m *memSystem) reset() {
	for i := range m.l1 {
		m.l1[i].reset()
		m.mshrs[i].reset()
	}
	m.l2.reset()
	m.dram.reset()
	m.MSHRMerges = 0
}

// access performs one memory request from SM sm at the given cycle and
// returns the completion cycle.
func (m *memSystem) access(sm int, addr uint64, cycle int64, op isa.Opcode) int64 {
	isStore := op == isa.OpSTG
	// Line number via the L1's precomputed shift (MSHRs track L1 lines).
	l1 := &m.l1[sm]
	var line uint64
	if l1.lineShift >= 0 {
		line = addr >> l1.lineShift
	} else {
		line = addr / l1.lineB
	}

	// Outstanding miss to the same line? Merge into its MSHR. A completed
	// (stale) entry is simply overwritten by the put below — only
	// outstanding fills influence timing, which is why pruning never
	// changes results.
	t := &m.mshrs[sm]
	if fill := t.get(line); fill > cycle {
		// The original fill has already allocated the line in the L1;
		// the merged request just waits for the same fill.
		m.MSHRMerges++
		return fill
	}

	hit, wb1 := l1.access(addr, cycle, isStore)
	if wb1 != 0 {
		m.writeback(sm, wb1, cycle)
	}
	if hit {
		return cycle + int64(m.cfg.L1.HitLat)
	}
	hit2, wb2 := m.l2.access(addr, cycle, isStore)
	if wb2 != 0 {
		m.dram.access(wb2, cycle+int64(m.cfg.L2.HitLat))
	}
	var done int64
	if hit2 {
		done = cycle + int64(m.cfg.L1.HitLat+m.cfg.L2.HitLat)
	} else {
		done = m.dram.access(addr, cycle+int64(m.cfg.L2.HitLat))
	}
	t.put(line, done)
	return done
}

// pruneMSHRs drops SM sm's completed fills once its table holds more
// entries than its prune threshold (see mshrTable). cycle must be no later
// than any request sm can still send; one SM's requests do not arrive in
// cycle order, so the serial loop passes each memory instruction's issue
// cycle, never an arrival cycle, and the parallel barrier prunes in global
// arrival order, against no later than the epoch's end.
func (m *memSystem) pruneMSHRs(sm int, cycle int64) {
	if t := &m.mshrs[sm]; len(t.ents) > t.limit {
		t.prune(cycle)
	}
}

// writeback pushes a dirty L1 eviction down to L2 (and DRAM if the L2
// eviction cascades). The evicting access does not wait for it; the cost
// is the bank occupancy it causes.
func (m *memSystem) writeback(sm int, addr uint64, cycle int64) {
	_, wb := m.l2.access(addr, cycle, true)
	if wb != 0 {
		m.dram.access(wb, cycle+int64(m.cfg.L2.HitLat))
	}
}

func (m *memSystem) l1Stats() (hits, misses int64) {
	for _, c := range m.l1 {
		hits += c.Hits
		misses += c.Misses
	}
	return
}

func (m *memSystem) writebacks() int64 {
	var n int64
	for _, c := range m.l1 {
		n += c.Writebacks
	}
	return n + m.l2.Writebacks
}

// mshrMinLimit is a table's first prune threshold: entries beyond it are
// pruned at the next memory instruction, and each prune sets the next
// threshold to max(mshrMinLimit, 2 × the entries it keeps).
const mshrMinLimit = 64

// mshrTable is one SM's MSHR file: the fills issued since its last prune,
// stored densely in insertion order, plus an open-addressed index over
// them (linear probing on flat arrays, no map on the per-request path).
// Only outstanding fills influence timing — a completed entry acts exactly
// like a missing one — so a prune compacts the entries to those still
// outstanding. The prune threshold is reset with the table and set only by
// the launch's own requests, and a prune's cost and the index's size
// follow the entries, never a capacity a recycled table grew to earlier.
type mshrTable struct {
	ents  []mshrEntry
	index []int32 // position in ents + 1; 0 is an empty slot
	shift uint    // 64 - log2(len(index)): the hash keeps its top bits
	limit int     // len(ents) above which pruneMSHRs prunes
}

type mshrEntry struct {
	line uint64
	done int64 // fill completion cycle
}

// reset empties the table and restores the first prune threshold.
func (t *mshrTable) reset() {
	t.ents = t.ents[:0]
	t.limit = mshrMinLimit
	t.reindex()
}

// slot returns the index slot holding line, or the empty slot where it
// would be inserted.
func (t *mshrTable) slot(line uint64) int {
	mask := len(t.index) - 1
	i := int((line * 0x9e3779b97f4a7c15) >> t.shift)
	for {
		p := t.index[i]
		if p == 0 || t.ents[p-1].line == line {
			return i
		}
		i = (i + 1) & mask
	}
}

// get returns line's fill completion cycle, or 0 when the table tracks no
// fill for line. A zero completion is never outstanding, so callers need
// not tell the two apart.
func (t *mshrTable) get(line uint64) int64 {
	if p := t.index[t.slot(line)]; p != 0 {
		return t.ents[p-1].done
	}
	return 0
}

// put records line's fill completion cycle, overwriting a tracked one.
func (t *mshrTable) put(line uint64, done int64) {
	i := t.slot(line)
	if p := t.index[i]; p != 0 {
		t.ents[p-1].done = done
		return
	}
	t.ents = append(t.ents, mshrEntry{line, done})
	t.index[i] = int32(len(t.ents))
	if 4*len(t.ents) > 3*len(t.index) {
		t.reindex()
	}
}

// prune keeps the entries whose fill completes after cycle and sets the
// next threshold from their count. Every entry is written back and only a
// kept one advances n, so the loop has no data-dependent branch.
func (t *mshrTable) prune(cycle int64) {
	n := 0
	for _, e := range t.ents {
		t.ents[n] = e
		n += int(b2i(e.done > cycle))
	}
	t.ents = t.ents[:n]
	t.limit = max(mshrMinLimit, 2*n)
	t.reindex()
}

// reindex sizes the index to the smallest power of two at least twice
// max(limit, entries), reusing its backing array, and re-inserts every
// entry.
func (t *mshrTable) reindex() {
	lg := bits.Len(uint(2*max(t.limit, len(t.ents)) - 1))
	if size := 1 << lg; size <= cap(t.index) {
		t.index = t.index[:size]
		clear(t.index)
	} else {
		t.index = make([]int32, size)
	}
	t.shift = uint(64 - lg)
	for p, e := range t.ents {
		t.index[t.slot(e.line)] = int32(p + 1)
	}
}
