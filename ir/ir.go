// Package ir re-exports the kernel intermediate representation so library
// users can define their own GPGPU kernels and applications — the built-in
// Table VI models (tbpoint.Benchmark) are constructed from exactly this
// API.
//
// A kernel body is a sequence of basic blocks, optionally grouped into
// single-level loops whose trip counts are per-thread-block parameters
// (tbpoint.TBParams.Trips). Memory instructions carry coalescing degree,
// an address-region tag, a stride, and an optional irregular (random
// access) marker; control-flow divergence is expressed per thread block
// via TBParams.ActiveFrac.
//
//	prog := ir.NewBuilder("saxpy").
//	    Block(ir.IALU()).
//	    LoopBlocks(0,
//	        ir.Load(1, 1, 128), ir.Load(1, 2, 128),
//	        ir.FALU(),
//	        ir.Store(1, 3, 128),
//	        ir.Branch(),
//	    ).
//	    EndBlock().
//	    Build()
//
//	k := &tbpoint.Kernel{Name: "saxpy", Program: prog, ThreadsPerBlock: 256}
package ir

import "tbpoint/internal/isa"

// Core types.
type (
	// Program is a complete kernel body.
	Program = isa.Program
	// Block is a basic block.
	Block = isa.Block
	// Loop marks a block range as a loop with a per-block trip parameter.
	Loop = isa.Loop
	// Instr is one static warp instruction.
	Instr = isa.Instr
	// Opcode enumerates warp-instruction classes.
	Opcode = isa.Opcode
	// Builder assembles programs fluently.
	Builder = isa.Builder
	// Code is a program's compiled µop table (Program.Code), what Cursor.Init takes.
	Code = isa.Code
	// Cursor walks a warp's dynamic instruction stream.
	Cursor = isa.Cursor
	// DynInstr is one dynamic instruction yielded by a Cursor.
	DynInstr = isa.DynInstr
)

// Opcodes.
const (
	OpIALU = isa.OpIALU
	OpFALU = isa.OpFALU
	OpSFU  = isa.OpSFU
	OpLDG  = isa.OpLDG
	OpSTG  = isa.OpSTG
	OpLDS  = isa.OpLDS
	OpBRA  = isa.OpBRA
	OpBAR  = isa.OpBAR
	OpEXIT = isa.OpEXIT
)

// NewBuilder returns a program builder.
func NewBuilder(name string) *Builder { return isa.NewBuilder(name) }

// NewCursor returns a cursor over one warp's dynamic instructions.
func NewCursor(p *Program, trips []int) *Cursor { return isa.NewCursor(p, trips) }

// IALU returns an integer-ALU instruction.
func IALU() Instr { return isa.IALU() }

// FALU returns a floating-point instruction.
func FALU() Instr { return isa.FALU() }

// SFU returns a special-function (long-latency transcendental) instruction.
func SFU() Instr { return isa.SFU() }

// Branch returns a branch instruction; loops execute one per iteration.
func Branch() Instr { return isa.Branch() }

// Barrier returns a thread-block-wide barrier.
func Barrier() Instr { return isa.Barrier() }

// Shared returns a shared-memory (software-managed cache) access.
func Shared() Instr { return isa.Shared() }

// Load returns a global load with the given coalescing degree (memory
// requests per fully-active warp instruction), address-region tag and
// byte stride between dynamic instances.
func Load(coalesce uint8, region uint8, strideB int32) Instr {
	return isa.Load(coalesce, region, strideB)
}

// Store returns a global store (same parameters as Load).
func Store(coalesce uint8, region uint8, strideB int32) Instr {
	return isa.Store(coalesce, region, strideB)
}

// Rep returns n copies of an instruction.
func Rep(in Instr, n int) []Instr { return isa.Rep(in, n) }

// Cat concatenates Instr and []Instr values into one slice.
func Cat(parts ...interface{}) []Instr { return isa.Cat(parts...) }
