package isa

// Builder assembles programs fluently. It exists so the workload models read
// like the kernels they imitate:
//
//	p := isa.NewBuilder("spmv").
//		Block(isa.IALU(2), isa.Load(1, 0, 128)).
//		LoopBlocks(1, isa.Load(8, 1, 0).Irregular(), isa.FALU(2), isa.IALU(1), isa.Branch()).
//		EndBlock(isa.Store(1, 2, 128)).
//		Build()
type Builder struct {
	p       Program
	pending []Loop
}

// NewBuilder returns a builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{p: Program{Name: name}}
}

// Block appends a basic block of the given instructions.
func (b *Builder) Block(instrs ...Instr) *Builder {
	b.p.Blocks = append(b.p.Blocks, Block{Instrs: instrs})
	return b
}

// LoopBlocks appends a single-block loop whose body executes
// Trips[tripParam] times.
func (b *Builder) LoopBlocks(tripParam int, instrs ...Instr) *Builder {
	begin := len(b.p.Blocks)
	b.Block(instrs...)
	b.pending = append(b.pending, Loop{Begin: begin, End: begin + 1, TripParam: tripParam})
	return b
}

// Loop appends a multi-block loop built from the given blocks.
func (b *Builder) Loop(tripParam int, blocks ...Block) *Builder {
	begin := len(b.p.Blocks)
	b.p.Blocks = append(b.p.Blocks, blocks...)
	b.pending = append(b.pending, Loop{Begin: begin, End: len(b.p.Blocks), TripParam: tripParam})
	return b
}

// EndBlock appends the final block, adding the EXIT terminator.
func (b *Builder) EndBlock(instrs ...Instr) *Builder {
	instrs = append(instrs, Instr{Op: OpEXIT})
	return b.Block(instrs...)
}

// Build finalises the program. It panics if the result is invalid, which is
// always a programming error in a workload model, not a runtime condition.
// The result is read-only: Build compiles its µop table (Program.Code) once,
// and later edits to its blocks or loops do not reach that table.
func (b *Builder) Build() *Program {
	b.p.Loops = b.pending
	if err := b.p.Validate(); err != nil {
		panic("isa: invalid program " + b.p.Name + ": " + err.Error())
	}
	b.p.code = compile(&b.p)
	return &b.p
}

// IALU returns an integer-ALU instruction. Use Rep to repeat it.
func IALU() Instr { return Instr{Op: OpIALU} }

// FALU returns a floating-point ALU instruction.
func FALU() Instr { return Instr{Op: OpFALU} }

// SFU returns a special-function instruction.
func SFU() Instr { return Instr{Op: OpSFU} }

// Branch returns a branch instruction.
func Branch() Instr { return Instr{Op: OpBRA} }

// Barrier returns a thread-block barrier instruction.
func Barrier() Instr { return Instr{Op: OpBAR} }

// Shared returns a shared-memory access.
func Shared() Instr { return Instr{Op: OpLDS} }

// Load returns a global load with the given coalescing degree, region and
// stride in bytes.
func Load(coalesce uint8, region uint8, strideB int32) Instr {
	return Instr{Op: OpLDG, Coalesce: coalesce, Region: region, StrideB: strideB}
}

// Store returns a global store with the given coalescing degree, region and
// stride in bytes.
func Store(coalesce uint8, region uint8, strideB int32) Instr {
	return Instr{Op: OpSTG, Coalesce: coalesce, Region: region, StrideB: strideB}
}

// Irregular marks a memory instruction as randomly addressed and returns it,
// for chaining: isa.Load(8, 1, 0).AsIrregular().
func (in Instr) AsIrregular() Instr {
	in.Random = true
	return in
}

// Rep returns n copies of instr, for padding blocks with ALU work.
func Rep(in Instr, n int) []Instr {
	out := make([]Instr, n)
	for i := range out {
		out[i] = in
	}
	return out
}

// Cat concatenates instruction slices and single instructions into one
// slice; arguments may be Instr or []Instr.
func Cat(parts ...interface{}) []Instr {
	var out []Instr
	for _, p := range parts {
		switch v := p.(type) {
		case Instr:
			out = append(out, v)
		case []Instr:
			out = append(out, v...)
		default:
			panic("isa: Cat accepts Instr or []Instr")
		}
	}
	return out
}
