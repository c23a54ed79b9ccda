// Package gpusim is the cycle-level GPGPU timing simulator — our substitute
// for Macsim (§V-A). It models a Fermi-class GPU at warp-instruction
// granularity: a configurable number of SMs, each issuing one warp
// instruction per cycle from its resident warps (in-order per warp,
// round-robin across ready warps), per-SM L1 caches, a shared L2, and a
// banked DRAM with row-buffer and queueing behaviour so memory stall
// latencies are naturally variable (the premise of the paper's §IV-A
// model).
//
// The simulator is trace driven: it reads each warp's instructions from the
// launch's lazily expanded synthetic trace (trace.Synthetic). It exposes
// the hooks the sampling layers need — thread-block dispatch/retire events,
// a skip decision point for fast-forwarding, sampling-unit tracking by
// "specified thread block" (§IV-B2), fixed-size sampling units with
// basic-block vectors for the SimPoint baseline — without knowing anything
// about the sampling policies themselves.
package gpusim

import (
	"fmt"

	"tbpoint/internal/isa"
	"tbpoint/internal/kernel"
)

// Latencies are the completion latencies (cycles from issue until the
// issuing warp may issue its next instruction) of non-global-memory
// instruction classes. Global memory latency is produced by the cache/DRAM
// hierarchy.
type Latencies struct {
	IALU int
	FALU int
	SFU  int
	LDS  int // shared-memory (software-managed cache) access
	BRA  int
	BAR  int // pipeline cost of the barrier instruction itself
}

// DefaultLatencies follow the CUDA manual's Fermi dependent-issue figures,
// as Table V prescribes ("instruction latencies are modeled according to
// the CUDA manual").
func DefaultLatencies() Latencies {
	return Latencies{IALU: 8, FALU: 18, SFU: 32, LDS: 26, BRA: 8, BAR: 4}
}

// Of returns the latency of op; memory opcodes return 0 because their
// latency comes from the memory system.
func (l Latencies) Of(op isa.Opcode) int {
	switch op {
	case isa.OpIALU:
		return l.IALU
	case isa.OpFALU:
		return l.FALU
	case isa.OpSFU:
		return l.SFU
	case isa.OpLDS:
		return l.LDS
	case isa.OpBRA:
		return l.BRA
	case isa.OpBAR:
		return l.BAR
	default:
		return 0
	}
}

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeB  int // total capacity in bytes
	LineB  int // line size in bytes
	Ways   int // associativity
	HitLat int // cycles added on a hit at this level
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int {
	s := c.SizeB / (c.LineB * c.Ways)
	if s < 1 {
		s = 1
	}
	return s
}

// DRAMConfig describes the memory system backend.
type DRAMConfig struct {
	Channels int
	Banks    int // banks per channel
	RowBits  int // log2 of the DRAM row (page) size in bytes
	// RowHitLat/RowMissLat are the bank service (busy) times of row-buffer
	// hits and misses; FR-FCFS keeps a row open, so consecutive accesses to
	// the same row pay the hit figure.
	RowHitLat  int
	RowMissLat int
	// BaseLat is the fixed interconnect + controller round-trip added to
	// every DRAM access.
	BaseLat int
}

// Config is the full simulator configuration. The zero value is not valid;
// start from DefaultConfig.
type Config struct {
	NumSMs int
	Limits kernel.SMLimits
	Lat    Latencies
	L1     CacheConfig
	L2     CacheConfig
	DRAM   DRAMConfig
	// DispatchInterval is the minimum number of cycles between successive
	// thread-block dispatches by the global scheduler. Real hardware
	// dispatches blocks over many cycles; a zero interval would start every
	// initially-resident block in lockstep, which creates artificial
	// GPU-wide IPC oscillation.
	DispatchInterval int
	// MSHRCapacity bounds the per-SM MSHR merge-tracking table: when more
	// than this many lines are tracked, entries whose fill has completed
	// are pruned. Only outstanding fills influence timing, so the knob
	// trades memory for merge-tracking work without changing results.
	// Zero means DefaultMSHRCapacity; negative is rejected by Validate.
	MSHRCapacity int
}

// DefaultMSHRCapacity is the per-SM MSHR table capacity used when
// Config.MSHRCapacity is zero (the pre-config hardcoded prune threshold).
const DefaultMSHRCapacity = 4096

// mshrCapacity resolves the configured capacity, applying the default.
func (c Config) mshrCapacity() int {
	if c.MSHRCapacity == 0 {
		return DefaultMSHRCapacity
	}
	return c.MSHRCapacity
}

// DefaultConfig returns the Table V configuration: 14 SMs at Fermi-like
// latencies, 16KB 8-way L1 and 768KB 8-way L2 with 128B lines, and a
// 6-channel 16-bank DRAM with 2KB pages and FR-FCFS-like row policy.
func DefaultConfig() Config {
	return Config{
		NumSMs: 14,
		Limits: kernel.DefaultSMLimits(),
		Lat:    DefaultLatencies(),
		L1:     CacheConfig{SizeB: 16 << 10, LineB: 128, Ways: 8, HitLat: 28},
		L2:     CacheConfig{SizeB: 768 << 10, LineB: 128, Ways: 8, HitLat: 90},
		DRAM: DRAMConfig{
			Channels:   6,
			Banks:      16,
			RowBits:    11, // 2KB page
			RowHitLat:  24,
			RowMissLat: 72,
			BaseLat:    100,
		},
		DispatchInterval: 8,
		MSHRCapacity:     DefaultMSHRCapacity,
	}
}

// WithOccupancy returns a copy of the config with the warp capacity (W) and
// SM count (S) of the Fig. 12/13 sensitivity sweep. MaxThreads and
// MaxBlocks scale with W so that the warp capacity is the binding resource
// knob, as in the paper's "number of warps on an SM" phrasing.
func (c Config) WithOccupancy(warpsPerSM, numSMs int) Config {
	c.Limits.MaxWarps = warpsPerSM
	c.Limits.MaxThreads = warpsPerSM * kernel.WarpSize
	c.Limits.MaxBlocks = warpsPerSM // block cap never binds below the warp cap
	c.NumSMs = numSMs
	return c
}

// Validate checks configuration sanity.
func (c Config) Validate() error {
	if c.NumSMs < 1 {
		return fmt.Errorf("gpusim: NumSMs %d < 1", c.NumSMs)
	}
	for _, cc := range []CacheConfig{c.L1, c.L2} {
		if cc.SizeB <= 0 || cc.LineB <= 0 || cc.Ways <= 0 {
			return fmt.Errorf("gpusim: invalid cache config %+v", cc)
		}
	}
	if c.DRAM.Channels < 1 || c.DRAM.Banks < 1 {
		return fmt.Errorf("gpusim: invalid DRAM config %+v", c.DRAM)
	}
	if c.DRAM.RowBits < 0 || c.DRAM.RowBits > 63 {
		return fmt.Errorf("gpusim: DRAM.RowBits %d outside [0, 63]", c.DRAM.RowBits)
	}
	// A negative latency or dispatch interval would make time run backwards.
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Lat.IALU", c.Lat.IALU}, {"Lat.FALU", c.Lat.FALU}, {"Lat.SFU", c.Lat.SFU},
		{"Lat.LDS", c.Lat.LDS}, {"Lat.BRA", c.Lat.BRA}, {"Lat.BAR", c.Lat.BAR},
		{"L1.HitLat", c.L1.HitLat}, {"L2.HitLat", c.L2.HitLat},
		{"DRAM.RowHitLat", c.DRAM.RowHitLat}, {"DRAM.RowMissLat", c.DRAM.RowMissLat},
		{"DRAM.BaseLat", c.DRAM.BaseLat},
		{"DispatchInterval", c.DispatchInterval}, {"MSHRCapacity", c.MSHRCapacity},
	} {
		if f.v < 0 {
			return fmt.Errorf("gpusim: %s %d < 0", f.name, f.v)
		}
	}
	return nil
}

// Name returns a short identifier like "W48S14" used by the sensitivity
// experiments.
func (c Config) Name() string {
	return fmt.Sprintf("W%dS%d", c.Limits.MaxWarps, c.NumSMs)
}
