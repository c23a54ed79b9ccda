// Package isa defines the kernel intermediate representation shared by the
// functional profiler (the GPUOcelot substitute) and the cycle-level timing
// simulator (the Macsim substitute).
//
// A kernel is a straight-line sequence of basic blocks, optionally grouped
// into single-level loops whose trip counts are per-thread-block parameters.
// This is deliberately simpler than PTX but rich enough to reproduce every
// behaviour the TBPoint evaluation depends on: instruction mix (the stall
// probability p), control-flow divergence (active-lane fraction), memory
// divergence (coalescing degree), thread-block size variation, and per-block
// execution counts (basic block vectors for the SimPoint baseline).
package isa

import (
	"errors"
	"fmt"
)

// Opcode enumerates warp-instruction classes. Latencies are assigned by the
// timing simulator configuration, not here, which keeps the IR (and hence
// profiling) hardware independent.
type Opcode uint8

const (
	// OpIALU is a single-cycle-issue integer ALU operation.
	OpIALU Opcode = iota
	// OpFALU is a floating-point operation (FP32 add/mul/fma class).
	OpFALU
	// OpSFU is a special-function operation (rsqrt, sin, ...), long latency.
	OpSFU
	// OpLDG is a load from global memory.
	OpLDG
	// OpSTG is a store to global memory.
	OpSTG
	// OpLDS is a shared-memory (software-managed cache) access.
	OpLDS
	// OpBRA is a branch; loops execute one per iteration.
	OpBRA
	// OpBAR is a thread-block-wide barrier.
	OpBAR
	// OpEXIT terminates a warp. It must be the last instruction of the last
	// block and may not appear anywhere else.
	OpEXIT

	numOpcodes = iota
)

var opcodeNames = [numOpcodes]string{
	"IALU", "FALU", "SFU", "LDG", "STG", "LDS", "BRA", "BAR", "EXIT",
}

func (op Opcode) String() string {
	if int(op) < len(opcodeNames) {
		return opcodeNames[op]
	}
	return fmt.Sprintf("Opcode(%d)", uint8(op))
}

// IsMem reports whether the opcode accesses memory. Shared-memory accesses
// are modelled as fixed-latency and do not count as "memory requests" in the
// TBPoint sense (the paper counts global and local accesses only).
func (op Opcode) IsMem() bool { return op == OpLDG || op == OpSTG }

// Valid reports whether op is a defined opcode.
func (op Opcode) Valid() bool { return int(op) < numOpcodes }

// Instr is one static warp instruction.
type Instr struct {
	Op Opcode

	// Coalesce is, for memory opcodes, the number of memory requests a
	// fully active warp issues for one dynamic instance of this
	// instruction: 1 for perfectly coalesced, up to 32 for fully divergent
	// accesses. Zero is treated as 1. Ignored for non-memory opcodes.
	Coalesce uint8

	// Region identifies the address region (data structure) the
	// instruction streams over; the trace expander assigns each region a
	// disjoint base address so cache behaviour is per-structure.
	Region uint8

	// StrideB is the byte stride between successive dynamic accesses of
	// this instruction by the same warp. Zero means re-access the same
	// line (maximal temporal locality).
	StrideB int32

	// Random marks irregular (data-dependent, pointer-chasing style)
	// accesses: the trace expander draws addresses uniformly from the
	// region footprint instead of striding.
	Random bool
}

// Block is a basic block: a straight-line run of instructions.
type Block struct {
	Instrs []Instr
}

// Loop marks blocks [Begin, End) as a loop body executed Trips[TripParam]
// times for each thread block (or warp), where Trips is supplied at
// expansion time. Loops must not overlap and must not nest.
type Loop struct {
	Begin, End int
	TripParam  int
}

// Program is a complete kernel body. A Program returned by Builder.Build is
// read-only: it carries the µop table compiled from its blocks, so editing
// Blocks or Loops afterwards leaves Code (and every Cursor) walking the old
// instructions, and a copy of it (q := *p) carries the same table.
type Program struct {
	Name   string
	Blocks []Block
	Loops  []Loop

	// code caches the program's µop table (Code). It is filled by
	// Builder.Build; Code compiles hand-literal Programs afresh instead, so
	// a nil value is always safe.
	code *Code
}

// Code returns the program's µop table, the form a Cursor walks: the one
// Builder.Build compiled, or for a hand-literal Program a fresh compilation
// per call (which stays safe under concurrent use), so a caller expanding
// many streams fetches it once. The program must be valid.
func (p *Program) Code() *Code {
	if p.code != nil {
		return p.code
	}
	return compile(p)
}

// Validate checks structural invariants: at least one block, every block
// non-empty, opcodes defined, EXIT exactly once as the final instruction,
// and loops sorted, in range, non-overlapping, non-empty.
func (p *Program) Validate() error {
	if len(p.Blocks) == 0 {
		return errors.New("isa: program has no blocks")
	}
	exitCount := 0
	for bi, b := range p.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("isa: block %d is empty", bi)
		}
		for ii, in := range b.Instrs {
			if !in.Op.Valid() {
				return fmt.Errorf("isa: block %d instr %d: invalid opcode %d", bi, ii, in.Op)
			}
			if in.Op == OpEXIT {
				exitCount++
				if bi != len(p.Blocks)-1 || ii != len(b.Instrs)-1 {
					return fmt.Errorf("isa: EXIT at block %d instr %d is not the final instruction", bi, ii)
				}
			}
			if in.Op.IsMem() && in.Coalesce > 32 {
				return fmt.Errorf("isa: block %d instr %d: coalesce %d > 32", bi, ii, in.Coalesce)
			}
		}
	}
	if exitCount != 1 {
		return fmt.Errorf("isa: program has %d EXIT instructions, want 1", exitCount)
	}
	prevEnd := 0
	for li, l := range p.Loops {
		if l.Begin < 0 || l.End > len(p.Blocks) || l.Begin >= l.End {
			return fmt.Errorf("isa: loop %d range [%d,%d) invalid", li, l.Begin, l.End)
		}
		if l.Begin < prevEnd {
			return fmt.Errorf("isa: loop %d overlaps previous loop", li)
		}
		if l.End == len(p.Blocks) {
			return fmt.Errorf("isa: loop %d contains the EXIT block", li)
		}
		if l.TripParam < 0 {
			return fmt.Errorf("isa: loop %d has negative trip parameter index", li)
		}
		prevEnd = l.End
	}
	return nil
}

// NumTripParams returns 1 + the largest TripParam referenced, i.e. the
// length of the Trips slice expansion requires. It returns 0 for loop-free
// programs.
func (p *Program) NumTripParams() int {
	n := 0
	for _, l := range p.Loops {
		if l.TripParam+1 > n {
			n = l.TripParam + 1
		}
	}
	return n
}

// tripCount returns how many times the body of a loop with trip parameter
// param executes for the given trip counts: trips[param], 1 when trips has
// no such entry, 0 when it is negative.
func tripCount(param int, trips []int) int {
	t := 1
	if param < len(trips) {
		t = trips[param]
	}
	return max(t, 0)
}

// Count walks the program once for one warp with the given loop trip counts
// and returns the dynamic warp instructions it executes and the
// global-memory requests it issues, assuming activeFrac of the 32 lanes are
// active (control divergence reduces the requests a partially-active warp
// can generate, but never below one per executed memory instruction). When
// execs is non-nil it must have one entry per block, and each block's
// execution count is added to it. Count does not allocate.
func (p *Program) Count(trips []int, activeFrac float64, execs []int64) (warpInsts, memReqs int64) {
	li := 0 // the loop holding or following block bi (loops are sorted)
	for bi := range p.Blocks {
		t := int64(1)
		if li < len(p.Loops) && bi >= p.Loops[li].Begin {
			t = int64(tripCount(p.Loops[li].TripParam, trips))
			if bi == p.Loops[li].End-1 {
				li++
			}
		}
		if execs != nil {
			execs[bi] += t
		}
		if t == 0 {
			continue
		}
		instrs := p.Blocks[bi].Instrs
		warpInsts += t * int64(len(instrs))
		for i := range instrs {
			if in := &instrs[i]; in.Op.IsMem() {
				memReqs += t * int64(RequestsPerAccess(in.Coalesce, activeFrac))
			}
		}
	}
	return warpInsts, memReqs
}

// BlockCounts returns the per-block dynamic execution counts for one warp
// with the given loop trip counts. This is the basic block vector before
// normalisation.
func (p *Program) BlockCounts(trips []int) []int64 {
	execs := make([]int64, len(p.Blocks))
	p.Count(trips, 1, execs)
	return execs
}

// WarpInstCount returns the number of dynamic warp instructions one warp
// executes with the given trip counts.
func (p *Program) WarpInstCount(trips []int) int64 {
	n, _ := p.Count(trips, 1, nil)
	return n
}

// MemRequestCount returns the number of global-memory requests one warp
// issues with the given trip counts and active-lane fraction (see Count).
func (p *Program) MemRequestCount(trips []int, activeFrac float64) int64 {
	_, n := p.Count(trips, activeFrac, nil)
	return n
}

// RequestsPerAccess returns the number of memory requests one dynamic
// instance of a memory instruction generates: the coalescing degree scaled
// by the active-lane fraction, floored at 1.
func RequestsPerAccess(coalesce uint8, activeFrac float64) int {
	c := int(coalesce)
	if c <= 0 {
		c = 1
	}
	if c > 32 {
		c = 32
	}
	r := int(float64(c)*EffectiveActive(activeFrac) + 0.5)
	if r < 1 {
		r = 1
	}
	return r
}

// EffectiveActive returns the active-lane fraction a warp runs with: af when
// 0 < af <= 1, and 1 (fully active) for anything else, NaN included. Every
// reader of an active fraction — profiler, trace expander, launch equality —
// goes through it, so they agree on what a fraction means.
func EffectiveActive(af float64) float64 {
	if af > 0 && af <= 1 {
		return af
	}
	return 1
}
