package isa

import (
	"math"
	"testing"
	"testing/quick"
)

// simpleProgram builds: block0 (2 IALU), loop block1 x trips[0]
// (LDG, FALU, BRA), exit block (STG, EXIT).
func simpleProgram() *Program {
	return NewBuilder("simple").
		Block(IALU(), IALU()).
		LoopBlocks(0, Load(4, 1, 128), FALU(), Branch()).
		EndBlock(Store(1, 2, 128)).
		Build()
}

func TestValidateAcceptsSimpleProgram(t *testing.T) {
	if err := simpleProgram().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		p    Program
	}{
		{"empty", Program{}},
		{"empty block", Program{Blocks: []Block{{}}}},
		{"no exit", Program{Blocks: []Block{{Instrs: []Instr{{Op: OpIALU}}}}}},
		{"exit not last", Program{Blocks: []Block{
			{Instrs: []Instr{{Op: OpEXIT}, {Op: OpIALU}}},
		}}},
		{"two exits", Program{Blocks: []Block{
			{Instrs: []Instr{{Op: OpEXIT}}},
			{Instrs: []Instr{{Op: OpEXIT}}},
		}}},
		{"bad opcode", Program{Blocks: []Block{
			{Instrs: []Instr{{Op: Opcode(200)}, {Op: OpEXIT}}},
		}}},
		{"loop out of range", Program{
			Blocks: []Block{{Instrs: []Instr{{Op: OpIALU}}}, {Instrs: []Instr{{Op: OpEXIT}}}},
			Loops:  []Loop{{Begin: 0, End: 5}},
		}},
		{"loop contains exit", Program{
			Blocks: []Block{{Instrs: []Instr{{Op: OpIALU}}}, {Instrs: []Instr{{Op: OpEXIT}}}},
			Loops:  []Loop{{Begin: 1, End: 2}},
		}},
		{"overlapping loops", Program{
			Blocks: []Block{
				{Instrs: []Instr{{Op: OpIALU}}},
				{Instrs: []Instr{{Op: OpIALU}}},
				{Instrs: []Instr{{Op: OpEXIT}}},
			},
			Loops: []Loop{{Begin: 0, End: 2}, {Begin: 1, End: 2}},
		}},
		{"coalesce too big", Program{Blocks: []Block{
			{Instrs: []Instr{{Op: OpLDG, Coalesce: 33}, {Op: OpEXIT}}},
		}}},
	}
	for _, c := range cases {
		if err := c.p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid program", c.name)
		}
	}
}

func TestWarpInstCount(t *testing.T) {
	p := simpleProgram()
	// 2 (block0) + trips*3 (loop) + 2 (end block incl EXIT)
	cases := []struct {
		trips []int
		want  int64
	}{
		{[]int{0}, 4},
		{[]int{1}, 7},
		{[]int{10}, 34},
		{nil, 7}, // missing trips default to 1
	}
	for _, c := range cases {
		if got := p.WarpInstCount(c.trips); got != c.want {
			t.Errorf("WarpInstCount(%v) = %d, want %d", c.trips, got, c.want)
		}
	}
}

func TestBlockCounts(t *testing.T) {
	p := simpleProgram()
	counts := p.BlockCounts([]int{5})
	want := []int64{1, 5, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("BlockCounts[%d] = %d, want %d", i, counts[i], want[i])
		}
	}
}

func TestMemRequestCount(t *testing.T) {
	p := simpleProgram()
	// Per loop iteration: LDG coalesce 4 -> 4 requests at activeFrac 1.
	// End block: STG coalesce 1 -> 1 request.
	if got := p.MemRequestCount([]int{3}, 1.0); got != 13 {
		t.Errorf("MemRequestCount = %d, want 13", got)
	}
	// Half-active warp halves the divergent requests (floored at 1).
	if got := p.MemRequestCount([]int{3}, 0.5); got != 7 {
		t.Errorf("MemRequestCount(half) = %d, want 7", got)
	}
}

func TestRequestsPerAccess(t *testing.T) {
	cases := []struct {
		c    uint8
		af   float64
		want int
	}{
		{0, 1, 1},
		{1, 1, 1},
		{32, 1, 32},
		{32, 0.5, 16},
		{4, 0.1, 1},
		{8, 0, 8},   // zero activeFrac treated as fully active
		{8, 2.0, 8}, // clamped above 1
		{8, math.NaN(), 8},
		{40, 1, 32}, // clamped coalesce
	}
	for _, c := range cases {
		if got := RequestsPerAccess(c.c, c.af); got != c.want {
			t.Errorf("RequestsPerAccess(%d,%v) = %d, want %d", c.c, c.af, got, c.want)
		}
	}
}

func TestEffectiveActive(t *testing.T) {
	for af, want := range map[float64]float64{
		0.5: 0.5, 1: 1, math.SmallestNonzeroFloat64: math.SmallestNonzeroFloat64,
		0: 1, -0.5: 1, 1.7: 1, math.Inf(1): 1, math.Inf(-1): 1,
	} {
		if got := EffectiveActive(af); got != want {
			t.Errorf("EffectiveActive(%v) = %v, want %v", af, got, want)
		}
	}
	if got := EffectiveActive(math.NaN()); got != 1 {
		t.Errorf("EffectiveActive(NaN) = %v, want 1", got)
	}
}

func TestCursorMatchesCounts(t *testing.T) {
	p := simpleProgram()
	for _, trips := range [][]int{{0}, {1}, {7}} {
		cur := NewCursor(p, trips)
		var n int64
		blockCounts := make([]int64, len(p.Blocks))
		sawExit := false
		for {
			in, block, _, ok := cur.Next()
			if !ok {
				break
			}
			n++
			if block == 1 {
				blockCounts[1]++
			}
			if in.Op == OpEXIT {
				sawExit = true
			}
		}
		if want := p.WarpInstCount(trips); n != want {
			t.Errorf("trips %v: cursor yielded %d instrs, want %d", trips, n, want)
		}
		if !sawExit {
			t.Errorf("trips %v: cursor never yielded EXIT", trips)
		}
		if want := p.BlockCounts(trips)[1] * 3; blockCounts[1] != want {
			t.Errorf("trips %v: loop block yielded %d, want %d", trips, blockCounts[1], want)
		}
	}
}

func TestCursorIterNumbers(t *testing.T) {
	p := simpleProgram()
	cur := NewCursor(p, []int{3})
	iters := map[int]bool{}
	for {
		_, block, iter, ok := cur.Next()
		if !ok {
			break
		}
		if block == 1 {
			iters[iter] = true
		} else if iter != 0 {
			t.Errorf("non-loop instruction has iteration %d", iter)
		}
	}
	for i := 0; i < 3; i++ {
		if !iters[i] {
			t.Errorf("loop iteration %d never seen", i)
		}
	}
}

func TestCursorMultiBlockLoop(t *testing.T) {
	p := NewBuilder("multi").
		Block(IALU()).
		Loop(0,
			Block{Instrs: []Instr{Load(1, 0, 128)}},
			Block{Instrs: []Instr{FALU(), Branch()}},
		).
		EndBlock().
		Build()
	cur := NewCursor(p, []int{4})
	var seq []int
	for {
		_, block, _, ok := cur.Next()
		if !ok {
			break
		}
		seq = append(seq, block)
	}
	// 1 + 4*(1+2) + 1 = 14 instructions
	if len(seq) != 14 {
		t.Fatalf("got %d instructions, want 14: %v", len(seq), seq)
	}
	// The loop body alternates blocks 1,2,2 per iteration.
	want := []int{0, 1, 2, 2, 1, 2, 2, 1, 2, 2, 1, 2, 2, 3}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("block sequence %v, want %v", seq, want)
		}
	}
}

func TestCursorZeroTripSkipsLoop(t *testing.T) {
	p := simpleProgram()
	cur := NewCursor(p, []int{0})
	for {
		_, block, _, ok := cur.Next()
		if !ok {
			break
		}
		if block == 1 {
			t.Fatal("zero-trip loop body executed")
		}
	}
}

// Property: for random trip counts, the cursor yields exactly
// WarpInstCount instructions and its per-block totals equal
// BlockCounts * block length.
func TestCursorCountProperty(t *testing.T) {
	p := NewBuilder("prop").
		Block(IALU(), IALU(), IALU()).
		LoopBlocks(0, Load(2, 0, 128), Branch()).
		Block(Shared()).
		LoopBlocks(1, FALU(), FALU(), Branch()).
		EndBlock(Store(1, 1, 128)).
		Build()
	f := func(t0, t1 uint8) bool {
		trips := []int{int(t0 % 50), int(t1 % 50)}
		cur := NewCursor(p, trips)
		perBlock := make([]int64, len(p.Blocks))
		var total int64
		for {
			_, block, _, ok := cur.Next()
			if !ok {
				break
			}
			perBlock[block]++
			total++
		}
		if total != p.WarpInstCount(trips) {
			return false
		}
		bc := p.BlockCounts(trips)
		for i := range bc {
			if perBlock[i] != bc[i]*int64(len(p.Blocks[i].Instrs)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBuilderPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Build of invalid program did not panic")
		}
	}()
	NewBuilder("bad").Block(IALU()).Build() // no EXIT
}

func TestRepAndCat(t *testing.T) {
	is := Cat(Rep(IALU(), 3), FALU(), Rep(SFU(), 2))
	if len(is) != 6 {
		t.Fatalf("Cat len = %d, want 6", len(is))
	}
	wantOps := []Opcode{OpIALU, OpIALU, OpIALU, OpFALU, OpSFU, OpSFU}
	for i, op := range wantOps {
		if is[i].Op != op {
			t.Errorf("is[%d].Op = %v, want %v", i, is[i].Op, op)
		}
	}
}

func TestCatPanicsOnBadType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Cat with bad type did not panic")
		}
	}()
	Cat(42)
}

func TestOpcodeString(t *testing.T) {
	if OpLDG.String() != "LDG" {
		t.Errorf("OpLDG.String() = %q", OpLDG.String())
	}
	if Opcode(200).String() == "" {
		t.Error("unknown opcode should still format")
	}
}

func TestAsIrregular(t *testing.T) {
	in := Load(8, 1, 0).AsIrregular()
	if !in.Random {
		t.Error("AsIrregular did not set Random")
	}
	if in.Op != OpLDG || in.Coalesce != 8 {
		t.Error("AsIrregular mutated other fields")
	}
}

func TestNumTripParams(t *testing.T) {
	p := simpleProgram()
	if got := p.NumTripParams(); got != 1 {
		t.Errorf("NumTripParams = %d, want 1", got)
	}
	noLoop := NewBuilder("nl").EndBlock(IALU()).Build()
	if got := noLoop.NumTripParams(); got != 0 {
		t.Errorf("NumTripParams (no loops) = %d, want 0", got)
	}
}
