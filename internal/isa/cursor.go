package isa

// DynInstr is one dynamic (executed) warp instruction yielded by a Cursor.
type DynInstr struct {
	Instr
	// Block is the index of the basic block the instruction belongs to,
	// used for basic-block-vector instrumentation.
	Block int
	// Iter is the loop iteration the instruction executes in (0 for
	// instructions outside any loop), used by address generation to
	// advance strided streams.
	Iter int
}

// Code is a program compiled for walking: a flat µop table holding the
// program's instructions in order, each tagged with its basic block, a
// loop-head µop before every loop body, a back-edge µop after it, and an
// end µop last. A run of instructions between control µops is one "piece"
// of the program. The table depends on the program alone, never on trip
// counts, so one Code serves every warp of every launch of a program; it is
// read-only once compiled.
type Code struct {
	ops []uop
}

// µop kinds. Only instruction µops are yielded; the others steer the walk.
const (
	uopInstr uint8 = iota
	uopLoop        // loop head: a zero trip count skips to jump
	uopBack        // back edge: repeat from jump while iterations remain
	uopEnd         // end of the stream
)

type uop struct {
	d     DynInstr // uopInstr: the instruction and its block (Iter unset)
	kind  uint8
	param int // uopLoop, uopBack: the loop's trip parameter
	jump  int // uopLoop: index past the back edge; uopBack: the body's first µop
}

// compile lowers a valid program to its µop table.
func compile(p *Program) *Code {
	n := 1 + 2*len(p.Loops)
	for _, b := range p.Blocks {
		n += len(b.Instrs)
	}
	ops := make([]uop, 0, n)
	li, head := 0, 0
	for bi, b := range p.Blocks {
		loopLeft := li < len(p.Loops)
		if loopLeft && p.Loops[li].Begin == bi {
			head = len(ops)
			ops = append(ops, uop{kind: uopLoop, param: p.Loops[li].TripParam})
		}
		for _, in := range b.Instrs {
			ops = append(ops, uop{d: DynInstr{Instr: in, Block: bi}})
		}
		if loopLeft && p.Loops[li].End == bi+1 {
			ops = append(ops, uop{kind: uopBack, param: p.Loops[li].TripParam, jump: head + 1})
			ops[head].jump = len(ops)
			li++
		}
	}
	return &Code{ops: append(ops, uop{kind: uopEnd})}
}

// Cursor walks the dynamic instruction stream of one warp executing a
// program with fixed loop trip counts. It holds no per-instruction
// allocations, and Init lets callers embed it by value, so large launches
// can be expanded lazily with one allocation per warp stream (or none).
// Its state is the shared µop table, the trip counts and two integers, and
// a step reads one µop, plus one control µop per loop boundary.
type Cursor struct {
	code  *Code
	trips []int // caller's per-loop trip parameters (read-only, not owned)
	pos   int   // next µop
	iter  int   // iteration of the enclosing loop (0-based; 0 outside loops)
}

// NewCursor returns a cursor at the first instruction. The program must be
// valid (see Program.Validate); behaviour is undefined otherwise.
func NewCursor(p *Program, trips []int) *Cursor {
	c := &Cursor{}
	c.Init(p.Code(), trips)
	return c
}

// Init resets the cursor to the first instruction of code (Program.Code)
// with the given trip counts, reusing the receiver's storage. trips is
// retained (not copied) and must not be mutated while the cursor is in use.
func (c *Cursor) Init(code *Code, trips []int) {
	c.code, c.trips, c.pos, c.iter = code, trips, 0, 0
}

// Next yields the next dynamic instruction. It returns ok == false once the
// stream is exhausted (after the EXIT instruction).
func (c *Cursor) Next() (d DynInstr, ok bool) {
	if c.code.ops[c.pos].kind != uopInstr && !c.control() {
		return d, false
	}
	d = c.code.ops[c.pos].d
	d.Iter = c.iter
	c.pos++
	return d, true
}

// control runs the control µops from c.pos on. It stops at the next
// instruction µop and reports true, or at the end of the stream and reports
// false.
func (c *Cursor) control() bool {
	for {
		u := &c.code.ops[c.pos]
		switch u.kind {
		case uopInstr:
			return true
		case uopLoop:
			c.pos++
			if tripCount(u.param, c.trips) == 0 {
				c.pos = u.jump
			}
		case uopBack:
			c.pos++
			if c.iter+1 < tripCount(u.param, c.trips) {
				c.iter++
				c.pos = u.jump
			} else {
				c.iter = 0
			}
		default:
			return false
		}
	}
}
