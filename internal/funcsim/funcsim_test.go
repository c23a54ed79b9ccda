package funcsim

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"tbpoint/internal/isa"
	"tbpoint/internal/kernel"
	"tbpoint/internal/par"
	"tbpoint/internal/trace"
	"tbpoint/internal/workloads"
)

func buildLaunch(nBlocks int, af float64) *kernel.Launch {
	prog := isa.NewBuilder("t").
		Block(isa.IALU(), isa.IALU()).
		LoopBlocks(0, isa.Load(4, 1, 128), isa.FALU(), isa.Branch()).
		EndBlock(isa.Store(2, 2, 0)).
		Build()
	k := &kernel.Kernel{Name: "t", Program: prog, ThreadsPerBlock: 64}
	params := make([]kernel.TBParams, nBlocks)
	for i := range params {
		params[i] = kernel.TBParams{Trips: []int{1 + i%4}, ActiveFrac: af, Seed: uint64(i)}
	}
	return kernel.NewLaunch(k, 0, params)
}

func TestProfileLaunchCounters(t *testing.T) {
	l := buildLaunch(6, 1.0)
	lp := ProfileLaunch(l)
	if lp.NumBlocks() != 6 {
		t.Fatalf("NumBlocks = %d", lp.NumBlocks())
	}
	for tb := 0; tb < 6; tb++ {
		p := lp.Block(tb)
		if p.WarpInsts != l.WarpInsts(tb) {
			t.Errorf("tb %d warp insts %d != %d", tb, p.WarpInsts, l.WarpInsts(tb))
		}
		if p.ThreadInsts != l.ThreadInsts(tb) {
			t.Errorf("tb %d thread insts mismatch", tb)
		}
		if p.MemRequests != l.MemRequests(tb) {
			t.Errorf("tb %d mem requests mismatch", tb)
		}
	}
	if lp.TotalWarpInsts() != l.TotalWarpInsts() {
		t.Error("TotalWarpInsts mismatch")
	}
	if lp.TotalThreadInsts() != l.TotalThreadInsts() {
		t.Error("TotalThreadInsts mismatch")
	}
	if lp.TotalMemRequests() != l.TotalMemRequests() {
		t.Error("TotalMemRequests mismatch")
	}
}

func TestStallProb(t *testing.T) {
	p := TBProfile{WarpInsts: 100, MemRequests: 20}
	if got := p.StallProb(); got != 0.2 {
		t.Errorf("StallProb = %v, want 0.2", got)
	}
	if got := (TBProfile{}).StallProb(); got != 0 {
		t.Errorf("StallProb(empty) = %v, want 0", got)
	}
}

// emulateLaunch is the reference profiler: it walks every warp stream of l
// — what the timing simulator reads — event by event and counts what it
// sees, one counter row per thread block.
func emulateLaunch(l *kernel.Launch) (rows []TBProfile, blockCounts []int64) {
	syn := trace.NewSynthetic(l)
	rows = make([]TBProfile, l.NumBlocks())
	blockCounts = make([]int64, len(l.Kernel.Program.Blocks))
	var st trace.SynthStream
	var addrs [trace.MaxRequests]uint64
	for tb := range rows {
		p := &rows[tb]
		for w := 0; w < l.Kernel.WarpsPerBlock(); w++ {
			syn.InitStream(&st, tb, w)
			for {
				ev, ok := st.Next(addrs[:])
				if !ok {
					break
				}
				p.WarpInsts++
				p.MemRequests += int64(ev.NumReq)
				blockCounts[ev.Block]++
			}
		}
		p.ThreadInsts = int64(float64(p.WarpInsts) * kernel.WarpSize * isa.EffectiveActive(l.Shape(tb).ActiveFrac))
	}
	return rows, blockCounts
}

// blockRows reads a profile back one counter row per thread block.
func blockRows(lp *LaunchProfile) []TBProfile {
	rows := make([]TBProfile, lp.NumBlocks())
	for tb := range rows {
		rows[tb] = lp.Block(tb)
	}
	return rows
}

// The profiler counts what the simulator reads: ProfileLaunch equals the
// stream walk on every block's counters and on BlockCounts in full, for
// hand-built launches (fully active, half active, NaN active) and for the
// first and last launch of every benchmark. Its shape rows are the launch's:
// one per shape, indexed through the launch's own ShapeOf.
func TestEmulateMatchesAnalytic(t *testing.T) {
	check := func(name string, l *kernel.Launch) {
		t.Helper()
		a := ProfileLaunch(l)
		rows, counts := emulateLaunch(l)
		if got := blockRows(a); !reflect.DeepEqual(got, rows) {
			t.Errorf("%s: analytic blocks %+v, stream walk %+v", name, got, rows)
		}
		if !reflect.DeepEqual(a.BlockCounts, counts) {
			t.Errorf("%s: analytic BlockCounts %v, stream walk %v", name, a.BlockCounts, counts)
		}
		if len(a.Shapes) != len(l.Shapes) || &a.ShapeOf[0] != &l.ShapeOf[0] {
			t.Errorf("%s: %d shape rows for %d shapes, or ShapeOf not the launch's", name, len(a.Shapes), len(l.Shapes))
		}
	}
	for _, af := range []float64{1.0, 0.5, math.NaN()} {
		check(fmt.Sprintf("af=%v", af), buildLaunch(5, af))
	}
	for _, s := range workloads.All() {
		app := s.Build(workloads.Config{Scale: 0.01, Seed: 3})
		check(s.Name+" first", app.Launches[0])
		check(s.Name+" last", app.Launches[len(app.Launches)-1])
	}
}

func TestTBSizesAndCoV(t *testing.T) {
	l := buildLaunch(8, 1.0)
	lp := ProfileLaunch(l)
	sizes := lp.TBSizes()
	if len(sizes) != 8 {
		t.Fatalf("TBSizes len = %d", len(sizes))
	}
	if lp.TBSizeCoV() <= 0 {
		t.Error("CoV should be positive for varying trip counts")
	}
	// Uniform launch has zero CoV.
	params := make([]kernel.TBParams, 4)
	for i := range params {
		params[i] = kernel.TBParams{Trips: []int{3}, ActiveFrac: 1}
	}
	uniform := kernel.NewLaunch(l.Kernel, 0, params)
	if got := ProfileLaunch(uniform).TBSizeCoV(); got != 0 {
		t.Errorf("uniform CoV = %v, want 0", got)
	}
}

// ProfileApp fans launches out over the shared worker budget; every profile
// must land at its launch's index and equal the launch's own ProfileLaunch.
func TestProfileApp(t *testing.T) {
	par.SetLimit(4)
	t.Cleanup(func() { par.SetLimit(0) })
	app := &kernel.App{Name: "a"}
	for i := 0; i < 40; i++ {
		app.Launches = append(app.Launches, buildLaunch(3+i*5, 1))
	}
	profs := ProfileApp(app)
	if len(profs) != len(app.Launches) {
		t.Fatalf("got %d profiles for %d launches", len(profs), len(app.Launches))
	}
	for i, l := range app.Launches {
		if !reflect.DeepEqual(profs[i], ProfileLaunch(l)) {
			t.Errorf("launch %d: fanned-out profile differs from ProfileLaunch", i)
		}
	}
}

// Profiling writes nothing per thread block: a launch's profile costs the
// same few allocations (the profile, its shape rows and BlockCounts, and the
// blocks-per-shape and per-walk scratch tables) at any size.
func TestProfileLaunchAllocsIndependentOfSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	small, large := buildLaunch(1_000, 0.5), buildLaunch(100_000, 0.5)
	a := testing.AllocsPerRun(5, func() { ProfileLaunch(small) })
	b := testing.AllocsPerRun(5, func() { ProfileLaunch(large) })
	if a != b || a > 5 {
		t.Errorf("allocations per ProfileLaunch: %v at 1k blocks, %v at 100k; want the same, at most 5", a, b)
	}
}

// retainedBytes returns how much live heap f's result keeps: the least of
// three measurements, since the runtime allocates a little on its own.
func retainedBytes(f func() *LaunchProfile) int64 {
	least := int64(math.MaxInt64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		lp := f()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(lp)
		least = min(least, int64(after.HeapAlloc)-int64(before.HeapAlloc))
	}
	return least
}

// A profile is laid out like its launch. A regular launch's costs a few
// hundred bytes at a million blocks (a row per block would be 24 MB), and an
// all-distinct launch's one 24-byte row per block plus a fixed few hundred
// bytes.
func TestProfileFootprint(t *testing.T) {
	k := buildLaunch(1, 1).Kernel
	trips := [][]int{{1}, {2}}
	regular := kernel.NewLaunchBuilder(k, 0, 1_000_000)
	for i := 0; i < 1_000_000; i++ {
		regular.Add(kernel.TBParams{Trips: trips[i%2], ActiveFrac: 1, Seed: uint64(i)})
	}
	l := regular.Launch()
	if got := retainedBytes(func() *LaunchProfile { return ProfileLaunch(l) }); got > 4<<10 {
		t.Errorf("two-shape launch of %d blocks: profile keeps %d bytes, want at most 4 KB", l.NumBlocks(), got)
	}

	const n = 100_000
	distinct := kernel.NewLaunchBuilder(k, 0, n)
	for i := 0; i < n; i++ {
		distinct.Add(kernel.TBParams{Trips: trips[0], ActiveFrac: float64(i+1) / n, Seed: uint64(i)})
	}
	l = distinct.Launch()
	if len(l.Shapes) != n {
		t.Fatalf("setup: %d shapes, want %d", len(l.Shapes), n)
	}
	if got := retainedBytes(func() *LaunchProfile { return ProfileLaunch(l) }); got > 24*n+4<<10 {
		t.Errorf("all-distinct launch of %d blocks: profile keeps %d bytes (%.1f per block), want at most 24 per block",
			n, got, float64(got)/n)
	}
}

// Property: profiling is hardware independent — the profile depends only on
// the launch, and equal launches give equal profiles (pure function).
func TestProfileDeterministicProperty(t *testing.T) {
	f := func(n uint8, afRaw uint8) bool {
		nb := 1 + int(n%8)
		af := 0.25 + float64(afRaw%4)*0.25
		l := buildLaunch(nb, af)
		return reflect.DeepEqual(blockRows(ProfileLaunch(l)), blockRows(ProfileLaunch(l)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: stall probability is within [0, maximum requests per inst].
func TestStallProbBoundsProperty(t *testing.T) {
	f := func(n uint8) bool {
		l := buildLaunch(1+int(n%6), 1)
		lp := ProfileLaunch(l)
		for tb := 0; tb < lp.NumBlocks(); tb++ {
			p := lp.Block(tb).StallProb()
			if p < 0 || p > 32 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
