package kernel

import (
	"math"
	"runtime"
	"slices"
	"testing"
)

// fracs are the active fractions blocksFrom picks from: 0 and -0 are equal
// as floats and two shapes as bits, NaN equals nothing as a float and itself
// as bits, 1.7 is out of range; 1 and 0.37 are ordinary.
var fracs = []float64{0, math.Copysign(0, -1), 1, 1.7, math.NaN(), 0.37}

// blocksFrom decodes a block list from fuzz input, two bytes per block: the
// first picks the active fraction and the number of trip counts (0-9, nil
// when 0), the second what they are, so equal byte pairs are equal blocks
// and a short alphabet repeats shapes often.
func blocksFrom(data []byte) []TBParams {
	var out []TBParams
	for ; len(data) >= 2; data = data[2:] {
		p := TBParams{ActiveFrac: fracs[int(data[0])%len(fracs)], Seed: uint64(len(out)) * 7}
		for i := 0; i < int(data[0]/8)%10; i++ {
			p.Trips = append(p.Trips, int(data[1])%5+i)
		}
		out = append(out, p)
	}
	return out
}

func sameShape(a, b TBParams) bool {
	return math.Float64bits(a.ActiveFrac) == math.Float64bits(b.ActiveFrac) && slices.Equal(a.Trips, b.Trips)
}

// checkBuilder holds a launch built from blocks to the builder's contract:
// every block reads back bit for bit, the table has exactly one entry per
// bit-distinct shape, in first-seen order, and the launch is valid. A zero
// hashMask forces every shape into one bucket, where only the comparison
// can tell them apart.
func checkBuilder(t *testing.T, blocks []TBParams, hashMask uint64) {
	t.Helper()
	b := NewLaunchBuilder(testKernel(), 3, len(blocks)/2) // a wrong hint is only a hint
	b.hashMask = hashMask
	var distinct []TBParams
	for _, p := range blocks {
		if !slices.ContainsFunc(distinct, func(q TBParams) bool { return sameShape(p, q) }) {
			distinct = append(distinct, p)
		}
		b.Add(TBParams{Trips: slices.Clone(p.Trips), ActiveFrac: p.ActiveFrac, Seed: p.Seed})
	}
	l := b.Launch()
	if err := l.Validate(); err != nil {
		t.Fatalf("built launch is invalid: %v", err)
	}
	if l.NumBlocks() != len(blocks) || l.Index != 3 {
		t.Fatalf("launch %d has %d blocks, want launch 3 with %d", l.Index, l.NumBlocks(), len(blocks))
	}
	for tb, want := range blocks {
		if got := l.Params(tb); !sameShape(got, want) || got.Seed != want.Seed {
			t.Fatalf("block %d reads back %+v, added %+v", tb, got, want)
		}
		if sh := l.Shape(tb); !sameShape(TBParams{Trips: sh.Trips, ActiveFrac: sh.ActiveFrac}, want) {
			t.Fatalf("block %d has shape %+v, added %+v", tb, sh, want)
		}
	}
	if len(l.Shapes) != len(distinct) {
		t.Fatalf("%d shapes for %d bit-distinct ones", len(l.Shapes), len(distinct))
	}
	for s, want := range distinct {
		if sh := l.Shapes[s]; !sameShape(TBParams{Trips: sh.Trips, ActiveFrac: sh.ActiveFrac}, want) {
			t.Fatalf("shape %d is %+v, want %+v (first-seen order)", s, sh, want)
		}
	}
}

// builderCorpus seeds FuzzLaunchBuilder and is what TestLaunchBuilder runs.
func builderCorpus() [][]byte {
	// Enough distinct shapes to outgrow the first table several times.
	many := make([]byte, 0, 600)
	for i := 0; i < 300; i++ {
		many = append(many, byte(i), byte(i/3))
	}
	return [][]byte{
		{},                             // no blocks
		{8, 1},                         // one block: one trip, fraction 1
		{8, 1, 8, 1, 8, 1, 8, 2, 8, 1}, // a run of one shape, broken once
		{8, 1, 9, 1, 8, 1, 9, 1},       // fractions 1 and 1.7 alternating
		{0, 0, 1, 0, 2, 0, 0, 0},       // no trips: 0, -0, 1, 0 again
		{4, 0, 4, 0, 12, 2, 12, 2},     // NaN twice without trips, 0 twice with one
		{76, 4, 76, 4, 74, 4},          // nine trips: NaN twice, then fraction 1
		many,
	}
}

func TestLaunchBuilder(t *testing.T) {
	for _, data := range builderCorpus() {
		checkBuilder(t, blocksFrom(data), ^uint64(0))
		checkBuilder(t, blocksFrom(data), 0)
	}
}

// FuzzLaunchBuilder holds the builder to checkBuilder's contract on block
// lists decoded from the fuzz input, with the real hash and with every shape
// in one bucket.
func FuzzLaunchBuilder(f *testing.F) {
	for _, data := range builderCorpus() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return // the one-bucket pass is quadratic in shapes
		}
		checkBuilder(t, blocksFrom(data), ^uint64(0))
		checkBuilder(t, blocksFrom(data), 0)
	})
}

// Two unequal shapes that share a bucket stay two shapes, and equal ones
// still meet: the hash picks where the lookup starts, never its answer.
func TestLaunchBuilderCollision(t *testing.T) {
	b := NewLaunchBuilder(testKernel(), 0, 4)
	b.hashMask = 0
	for _, p := range []TBParams{
		{Trips: []int{3}, ActiveFrac: 1},
		{Trips: []int{4}, ActiveFrac: 1},
		{Trips: []int{3}, ActiveFrac: 1},
		{Trips: []int{3}, ActiveFrac: 0.5},
	} {
		b.Add(p)
	}
	l := b.Launch()
	if want := []uint32{0, 1, 0, 2}; !slices.Equal(l.ShapeOf, want) || len(l.Shapes) != 3 {
		t.Errorf("ShapeOf = %v with %d shapes, want %v with 3", l.ShapeOf, len(l.Shapes), want)
	}
}

func TestLaunchValidateTables(t *testing.T) {
	good := func() *Launch { return newLaunch(testKernel(), []int{3}, 1, 4) }
	if err := good().Validate(); err != nil {
		t.Fatalf("valid launch rejected: %v", err)
	}
	l := good()
	l.Seeds = l.Seeds[:3]
	if l.Validate() == nil {
		t.Error("accepted fewer seeds than blocks")
	}
	l = good()
	l.ShapeOf[2] = uint32(len(l.Shapes))
	if l.Validate() == nil {
		t.Error("accepted a shape index past the table")
	}
	if err := (&Launch{Kernel: testKernel()}).Validate(); err != nil {
		t.Errorf("empty launch rejected: %v", err)
	}
}

// Totals are shape counts weighted by the blocks that have each shape; they
// must equal the per-block sums whatever the mix.
func TestLaunchTotalsMatchPerBlockSums(t *testing.T) {
	params := make([]TBParams, 50)
	for i := range params {
		params[i] = TBParams{Trips: []int{1 + i%4}, ActiveFrac: []float64{1, 0.5, 1.7}[i%3]}
	}
	l := NewLaunch(testKernel(), 0, params)
	if len(l.Shapes) != 12 {
		t.Fatalf("%d shapes, want 12", len(l.Shapes))
	}
	var thread, warp, mem int64
	for tb := range params {
		thread += l.ThreadInsts(tb)
		warp += l.WarpInsts(tb)
		mem += l.MemRequests(tb)
	}
	if l.TotalThreadInsts() != thread || l.TotalWarpInsts() != warp || l.TotalMemRequests() != mem {
		t.Errorf("totals %d/%d/%d, per-block sums %d/%d/%d",
			l.TotalThreadInsts(), l.TotalWarpInsts(), l.TotalMemRequests(), thread, warp, mem)
	}
}

// A regular launch costs a shape index and a seed per thread block and
// nothing else that grows with it, so the saving cannot quietly regress:
// 1 M blocks of two alternating shapes stay within 16 bytes per block.
func TestRegularLaunchFootprint(t *testing.T) {
	const n = 1 << 20
	inner, edge := []int{16}, []int{12}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b := NewLaunchBuilder(testKernel(), 0, n)
	for tb := 0; tb < n; tb++ {
		trips := inner
		if tb%24 == 0 || tb%24 == 23 {
			trips = edge
		}
		b.Add(TBParams{Trips: trips, ActiveFrac: 1, Seed: uint64(tb) | 1})
	}
	l := b.Launch()
	b = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	if len(l.Shapes) != 2 || l.NumBlocks() != n {
		t.Fatalf("%d shapes, %d blocks", len(l.Shapes), l.NumBlocks())
	}
	perBlock := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	if perBlock > 16 {
		t.Errorf("a regular launch holds %.1f bytes per thread block, want <= 16", perBlock)
	}
	runtime.KeepAlive(l)
}
