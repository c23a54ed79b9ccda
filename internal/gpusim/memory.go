package gpusim

import (
	"tbpoint/internal/isa"
	"tbpoint/internal/metrics"
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
	prune int // live-entry count above which completed fills are pruned
	l1    []cache
	l2    *cache
	dram  *dram
	mshrs []mshrTable // per SM: line -> fill completion cycle
	mc    *metrics.Collector

	MSHRMerges int64
	prunes     int64 // pruneMSHRs invocations that pruned (MSHR pressure indicator)
}

func newMemSystem(cfg Config) *memSystem {
	m := &memSystem{
		cfg:   cfg,
		prune: cfg.mshrCapacity(),
		l2:    newCache(cfg.L2),
		dram:  newDRAM(cfg.DRAM),
	}
	m.l1 = make([]cache, cfg.NumSMs)
	m.mshrs = make([]mshrTable, cfg.NumSMs)
	for i := range m.l1 {
		m.l1[i] = *newCache(cfg.L1)
		m.mshrs[i].init(mshrInitialSlots)
	}
	return m
}

// reset clears all cache, DRAM and MSHR state so the memSystem can be
// reused for a fresh launch.
func (m *memSystem) reset() {
	for i := range m.l1 {
		m.l1[i].reset()
		m.mshrs[i].clear()
	}
	m.l2.reset()
	m.dram.reset()
	m.MSHRMerges = 0
	m.prunes = 0
}

// setMetrics points the memory system (and its DRAM model) at the run's
// collector; nil disables per-access observations.
func (m *memSystem) setMetrics(mc *metrics.Collector) {
	m.mc = mc
	m.dram.mc = mc
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
	// (stale) entry is simply overwritten by the insert below — only
	// outstanding fills influence timing, which is what makes the prune
	// policy a pure capacity knob.
	t := &m.mshrs[sm]
	if m.mc != nil {
		m.mc.Observe(metrics.DistMSHROccupancy, uint64(t.n))
	}
	slot := t.find(line)
	if t.keys[slot] != 0 && t.vals[slot] > cycle {
		// The original fill has already allocated the line in the L1;
		// the merged request just waits for the same fill.
		m.MSHRMerges++
		return t.vals[slot]
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

// pruneMSHRs drops SM sm's completed fills once its table tracks more than
// the configured capacity. cycle must be no later than any request sm can
// still send; one SM's requests do not arrive in cycle order, so the serial
// loop passes each memory instruction's issue cycle, never an arrival
// cycle, and the parallel barrier prunes in global arrival order.
func (m *memSystem) pruneMSHRs(sm int, cycle int64) {
	if t := &m.mshrs[sm]; t.n > m.prune {
		m.prunes++
		t.pruneCompleted(cycle)
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

// mshrInitialSlots is the initial open-addressed table size (slots, a power
// of two); tables grow by doubling under load and are recycled across
// launches, so steady state performs no per-request allocation.
const mshrInitialSlots = 1024

// mshrTable is a bounded open-addressed hash table mapping cache lines to
// fill completion cycles — the per-SM MSHR file. It replaces a Go map on
// the per-request hot path: linear probing over flat arrays avoids the
// hash-map's per-operation overhead and allocation churn. Keys store
// line+1 so that slot 0 being empty is distinguishable from line 0.
type mshrTable struct {
	keys []uint64
	vals []int64
	mask uint64
	n    int

	// scratch buffers for pruneCompleted, kept to avoid allocation on the
	// (rare) prune path.
	scratchK []uint64
	scratchV []int64
}

func (t *mshrTable) init(slots int) {
	t.keys = make([]uint64, slots)
	t.vals = make([]int64, slots)
	t.mask = uint64(slots - 1)
	t.n = 0
}

func (t *mshrTable) clear() {
	clear(t.keys)
	t.n = 0
}

// find returns the slot holding line, or the empty slot where it would be
// inserted. Callers distinguish the cases via keys[slot] != 0.
func (t *mshrTable) find(line uint64) int {
	key := line + 1
	i := (line * 0x9e3779b97f4a7c15) & t.mask
	for {
		k := t.keys[i]
		if k == key || k == 0 {
			return int(i)
		}
		i = (i + 1) & t.mask
	}
}

// put inserts or overwrites line's completion cycle, growing the table when
// it passes 3/4 load.
func (t *mshrTable) put(line uint64, done int64) {
	i := t.find(line)
	if t.keys[i] == 0 {
		t.keys[i] = line + 1
		t.n++
		if uint64(t.n)*4 > (t.mask+1)*3 {
			t.grow()
			i = t.find(line)
		}
	}
	t.vals[i] = done
}

func (t *mshrTable) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.init(2 * len(oldKeys))
	for i, k := range oldKeys {
		if k != 0 {
			j := t.find(k - 1)
			t.keys[j] = k
			t.vals[j] = oldVals[i]
			t.n++
		}
	}
}

// pruneCompleted drops entries whose fill has completed; called rarely
// (only when more than the configured MSHR capacity is tracked).
// Outstanding fills are always retained, so pruning never changes timing.
func (t *mshrTable) pruneCompleted(cycle int64) {
	t.scratchK = t.scratchK[:0]
	t.scratchV = t.scratchV[:0]
	for i, k := range t.keys {
		if k != 0 && t.vals[i] > cycle {
			t.scratchK = append(t.scratchK, k)
			t.scratchV = append(t.scratchV, t.vals[i])
		}
	}
	clear(t.keys)
	t.n = len(t.scratchK)
	for i, k := range t.scratchK {
		j := t.find(k - 1)
		t.keys[j] = k
		t.vals[j] = t.scratchV[i]
	}
}
