package gpusim

import "math/bits"

// cache is a set-associative, LRU, tag-only cache model. It tracks hits and
// misses; data is never stored (timing simulation only needs residency).
// Both loads and stores allocate (write-allocate, no write-back traffic
// modelling), which is the usual first-order model for GPU L1/L2.
type cache struct {
	sets    int
	ways    int
	lineB   uint64
	tags    []uint64 // sets*ways entries; 0 means empty (tag 0 is offset by +1)
	lastUse []int64  // LRU timestamps
	dirty   []uint8  // per way: 1 when written since fill

	// Strength-reduction for the per-access address math: lineShift
	// replaces the divide by lineB when lineB is a power of two (-1
	// otherwise), setMask the modulo by sets when sets is (0 otherwise —
	// a one-set cache uses the mask too, since line&0 == line%1). For
	// non-power-of-two set counts, setM/setMLimit drive a Lemire fastmod
	// (two multiplies instead of a divide), exact for line numbers up to
	// setMLimit = (2^64-1)/sets; larger lines fall back to %.
	lineShift int
	setMask   uint64
	setM      uint64
	setMLimit uint64

	Hits, Misses int64
	Writebacks   int64
}

func newCache(cfg CacheConfig) *cache {
	sets := cfg.Sets()
	c := &cache{
		sets:      sets,
		ways:      cfg.Ways,
		lineB:     uint64(cfg.LineB),
		tags:      make([]uint64, sets*cfg.Ways),
		lastUse:   make([]int64, sets*cfg.Ways),
		dirty:     make([]uint8, sets*cfg.Ways),
		lineShift: -1,
	}
	if lb := uint64(cfg.LineB); lb > 0 && lb&(lb-1) == 0 {
		c.lineShift = bits.TrailingZeros64(lb)
	}
	if s := uint64(sets); s&(s-1) == 0 {
		c.setMask = s - 1
	} else {
		c.setM = ^uint64(0)/s + 1
		c.setMLimit = ^uint64(0) / s // n*sets must not overflow for fastmod
	}
	for i := range c.lastUse {
		c.lastUse[i] = -1 // empty ways are preferred victims
	}
	return c
}

// access looks up addr at the given cycle, allocating on miss. isStore
// marks the line dirty. It reports whether the access hit and, when the
// fill evicted a dirty line, the evicted line's address (writeback != 0).
func (c *cache) access(addr uint64, cycle int64, isStore bool) (hit bool, writeback uint64) {
	var line uint64
	if c.lineShift >= 0 {
		line = addr >> c.lineShift
	} else {
		line = addr / c.lineB
	}
	var set int
	if c.setMask != 0 || c.sets == 1 {
		set = int(line & c.setMask)
	} else if line <= c.setMLimit {
		hi, _ := bits.Mul64(c.setM*line, uint64(c.sets))
		set = int(hi)
	} else {
		set = int(line % uint64(c.sets))
	}
	tag := line + 1 // +1 so that tag 0 is never confused with an empty way
	base := set * c.ways
	st := uint8(b2i(isStore))

	// Hit scan first: the victim search is only needed on a miss, and hits
	// dominate, so keeping the loops separate keeps the hot path tight.
	ways := c.tags[base : base+c.ways]
	for w := range ways {
		if ways[w] == tag {
			i := base + w
			c.lastUse[i] = cycle
			c.dirty[i] |= st
			c.Hits++
			return true, 0
		}
	}
	victim := base + victimWay(c.lastUse[base:base+c.ways])
	c.Misses++
	// A dirty way always holds a line (reset clears both), so the dirty bit
	// alone decides the writeback; as a mask it costs no branch.
	d := uint64(c.dirty[victim])
	c.Writebacks += int64(d)
	writeback = ((c.tags[victim] - 1) * c.lineB) & -d
	c.tags[victim] = tag
	c.lastUse[victim] = cycle
	c.dirty[victim] = st
	return false, writeback
}

// victimWay returns the first way with the least lastUse — the LRU way,
// empty ways (-1) first. The outcome of each comparison is data dependent
// and so mispredicts often as a branch; here it is a sign mask that selects
// the index and value instead. lastUse values are -1 or a cycle, so the
// difference cannot overflow. pick keeps the earlier way on a tie, so the
// first of equal values wins, as in a linear scan.
func victimWay(lu []int64) int {
	w, v := 0, lu[0]
	for i := 1; i < len(lu); i++ {
		w, v = pick(w, v, i, lu[i])
	}
	return w
}

// pick returns (b, vb) when vb < va and (a, va) otherwise, without a branch.
func pick(a int, va int64, b int, vb int64) (int, int64) {
	m := (vb - va) >> 63 // all ones when vb < va
	return a ^ (a^b)&int(m), va ^ (va^vb)&m
}

// reset clears contents and statistics.
func (c *cache) reset() {
	for i := range c.tags {
		c.tags[i] = 0
		c.lastUse[i] = -1
		c.dirty[i] = 0
	}
	c.Hits, c.Misses, c.Writebacks = 0, 0, 0
}
