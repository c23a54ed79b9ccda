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

// Cursor walks the dynamic instruction stream of one warp executing a
// program with fixed loop trip counts. It holds no per-instruction
// allocations, and Init lets callers embed it by value, so large launches
// can be expanded lazily with one allocation per warp stream (or none).
type Cursor struct {
	p      *Program
	raw    []int   // caller's per-loop trip parameters (read-only, not owned)
	loopOf []int   // block index -> loop index or -1 (shared, read-only)
	instrs []Instr // current block's instructions (cached from p)

	block int // current block index
	instr int // next instruction index within block
	iter  int // current iteration of the enclosing loop (0-based)
	done  bool
}

// NewCursor returns a cursor at the first instruction. The program must be
// valid (see Program.Validate); behaviour is undefined otherwise.
func NewCursor(p *Program, trips []int) *Cursor {
	c := &Cursor{}
	c.Init(p, trips)
	return c
}

// Init resets the cursor to the first instruction of p with the given trip
// counts, reusing the receiver's storage. trips is retained (not copied)
// and must not be mutated while the cursor is in use.
func (c *Cursor) Init(p *Program, trips []int) {
	c.p = p
	c.raw = trips
	c.loopOf = p.loopIndex()
	c.block, c.instr, c.iter = 0, 0, 0
	c.done = false
	c.skipDeadBlocks()
}

// trip returns the effective trip count of block b (Program.tripOf).
func (c *Cursor) trip(b int) int {
	return c.p.tripOf(c.loopOf, c.raw, b)
}

// skipDeadBlocks advances past blocks whose trip count is zero.
func (c *Cursor) skipDeadBlocks() {
	for c.block < len(c.p.Blocks) && c.trip(c.block) == 0 {
		// Zero-trip loop: skip the whole body.
		if li := c.loopOf[c.block]; li >= 0 {
			c.block = c.p.Loops[li].End
		} else {
			c.block++
		}
		c.iter = 0
	}
	if c.block >= len(c.p.Blocks) {
		c.done = true
		c.instrs = nil
		return
	}
	c.instrs = c.p.Blocks[c.block].Instrs
}

// Next yields the next dynamic instruction. It returns ok == false once the
// stream is exhausted (after the EXIT instruction).
func (c *Cursor) Next() (d DynInstr, ok bool) {
	if c.done {
		return DynInstr{}, false
	}
	d = DynInstr{Instr: c.instrs[c.instr], Block: c.block, Iter: c.iter}
	c.advance()
	return d, true
}

func (c *Cursor) advance() {
	c.instr++
	if c.instr < len(c.instrs) {
		return
	}
	c.instr = 0
	li := c.loopOf[c.block]
	if li >= 0 && c.block == c.p.Loops[li].End-1 {
		// End of a loop body: either iterate or fall through.
		if c.iter+1 < c.trip(c.block) {
			c.iter++
			c.block = c.p.Loops[li].Begin
			c.instrs = c.p.Blocks[c.block].Instrs
			return
		}
		c.iter = 0
	}
	c.block++
	c.skipDeadBlocks()
}
