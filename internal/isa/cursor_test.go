package isa

import (
	"math/rand"
	"testing"
)

// blockCursor is the block-by-block walk Cursor replaced: it follows the
// program's blocks through a block -> loop index and re-reads the trip
// count at every loop boundary. It is the oracle the flat µop walk is held
// to.
type blockCursor struct {
	p      *Program
	trips  []int
	loopOf []int
	block  int
	instr  int
	iter   int
	done   bool
}

func newBlockCursor(p *Program, trips []int) *blockCursor {
	c := &blockCursor{p: p, trips: trips, loopOf: make([]int, len(p.Blocks))}
	for i := range c.loopOf {
		c.loopOf[i] = -1
	}
	for li, l := range p.Loops {
		for b := l.Begin; b < l.End; b++ {
			c.loopOf[b] = li
		}
	}
	c.skipDeadBlocks()
	return c
}

func (c *blockCursor) trip(b int) int {
	li := c.loopOf[b]
	if li < 0 {
		return 1
	}
	t := 1
	if tp := c.p.Loops[li].TripParam; tp < len(c.trips) {
		t = c.trips[tp]
	}
	return max(t, 0)
}

func (c *blockCursor) skipDeadBlocks() {
	for c.block < len(c.p.Blocks) && c.trip(c.block) == 0 {
		if li := c.loopOf[c.block]; li >= 0 {
			c.block = c.p.Loops[li].End
		} else {
			c.block++
		}
		c.iter = 0
	}
	c.done = c.block >= len(c.p.Blocks)
}

func (c *blockCursor) Next() (in Instr, block, iter int, ok bool) {
	if c.done {
		return in, 0, 0, false
	}
	in, block, iter = c.p.Blocks[c.block].Instrs[c.instr], c.block, c.iter
	c.instr++
	if c.instr < len(c.p.Blocks[c.block].Instrs) {
		return in, block, iter, true
	}
	c.instr = 0
	if li := c.loopOf[c.block]; li >= 0 && c.block == c.p.Loops[li].End-1 {
		if c.iter+1 < c.trip(c.block) {
			c.iter++
			c.block = c.p.Loops[li].Begin
			return in, block, iter, true
		}
		c.iter = 0
	}
	c.block++
	c.skipDeadBlocks()
	return in, block, iter, true
}

// randomProgram builds a valid program of up to four segments — each a
// straight run or a loop of one to three blocks over trip parameter 0-3 —
// and a final block, with random instructions in every block.
func randomProgram(rng *rand.Rand) *Program {
	block := func() []Instr {
		instrs := make([]Instr, 1+rng.Intn(4))
		for i := range instrs {
			instrs[i] = Instr{
				Op:       Opcode(rng.Intn(int(OpEXIT))),
				Coalesce: uint8(rng.Intn(33)),
				Region:   uint8(rng.Intn(4)),
				StrideB:  int32(rng.Intn(512) - 128),
				Random:   rng.Intn(4) == 0,
			}
		}
		return instrs
	}
	b := NewBuilder("random")
	for seg := rng.Intn(5); seg > 0; seg-- {
		blocks := make([]Block, 1+rng.Intn(3))
		for i := range blocks {
			blocks[i] = Block{Instrs: block()}
		}
		if rng.Intn(2) == 0 {
			b.Loop(rng.Intn(4), blocks...)
			continue
		}
		for _, bl := range blocks {
			b.Block(bl.Instrs...)
		}
	}
	return b.EndBlock(block()...).Build()
}

// checkCursor walks p with trips through Cursor and the block-walk oracle
// and fails on the first (Instr, Block, Iter) that differs.
func checkCursor(t *testing.T, p *Program, trips []int) {
	t.Helper()
	got, want := NewCursor(p, trips), newBlockCursor(p, trips)
	for n := 0; ; n++ {
		gi, gb, gt, gok := got.Next()
		wi, wb, wt, wok := want.Next()
		if gi != wi || gb != wb || gt != wt || gok != wok {
			t.Fatalf("trips %v, instruction %d: cursor (%+v, block %d, iter %d, %v), block walk (%+v, block %d, iter %d, %v)",
				trips, n, gi, gb, gt, gok, wi, wb, wt, wok)
		}
		if !wok {
			break
		}
	}
	if _, _, _, ok := got.Next(); ok {
		t.Fatalf("trips %v: cursor yields again after its end", trips)
	}
}

// FuzzCursor holds the flat µop walk to the block walk on random valid
// programs (multi-block loops, straight runs between and around them) and
// random trip counts: missing, zero, negative and positive. The program is
// walked both as built (its cached Code) and as a hand-literal copy (Code
// compiled on demand).
func FuzzCursor(f *testing.F) {
	f.Add(int64(1), []byte{3, 0, 2, 1})
	f.Add(int64(2), []byte{0})
	f.Add(int64(3), []byte{0xff, 4, 0, 0xfe})
	f.Add(int64(4), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		if len(raw) > 8 {
			return // four trip parameters are all a program reads
		}
		p := randomProgram(rand.New(rand.NewSource(seed)))
		trips := make([]int, len(raw))
		for i, b := range raw {
			trips[i] = int(int8(b)) % 5 // -4..4
		}
		checkCursor(t, p, trips)
		checkCursor(t, &Program{Name: p.Name, Blocks: p.Blocks, Loops: p.Loops}, trips)
	})
}

// TestCursorMatchesBlockWalk runs FuzzCursor's check over a fixed sweep of
// seeds, so the plain test suite covers it too.
func TestCursorMatchesBlockWalk(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomProgram(rng)
		trips := make([]int, rng.Intn(5))
		for i := range trips {
			trips[i] = rng.Intn(9) - 3
		}
		checkCursor(t, p, trips)
	}
}
