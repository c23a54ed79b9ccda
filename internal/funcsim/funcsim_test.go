package funcsim

import (
	"fmt"
	"math"
	"reflect"
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
		if lp.Blocks[tb].WarpInsts != l.WarpInsts(tb) {
			t.Errorf("tb %d warp insts %d != %d", tb, lp.Blocks[tb].WarpInsts, l.WarpInsts(tb))
		}
		if lp.Blocks[tb].ThreadInsts != l.ThreadInsts(tb) {
			t.Errorf("tb %d thread insts mismatch", tb)
		}
		if lp.Blocks[tb].MemRequests != l.MemRequests(tb) {
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
// sees.
func emulateLaunch(l *kernel.Launch) *LaunchProfile {
	syn := trace.NewSynthetic(l)
	lp := &LaunchProfile{
		Blocks:      make([]TBProfile, l.NumBlocks()),
		BlockCounts: make([]int64, len(l.Kernel.Program.Blocks)),
	}
	var st trace.SynthStream
	var addrs [trace.MaxRequests]uint64
	for tb := range lp.Blocks {
		p := &lp.Blocks[tb]
		for w := 0; w < l.Kernel.WarpsPerBlock(); w++ {
			syn.InitStream(&st, tb, w)
			for {
				ev, ok := st.Next(addrs[:])
				if !ok {
					break
				}
				p.WarpInsts++
				p.MemRequests += int64(ev.NumReq)
				lp.BlockCounts[ev.Block]++
			}
		}
		p.ThreadInsts = int64(float64(p.WarpInsts) * kernel.WarpSize * isa.EffectiveActive(l.Shape(tb).ActiveFrac))
	}
	return lp
}

// The profiler counts what the simulator reads: ProfileLaunch equals the
// stream walk on every counter, BlockCounts in full, for hand-built launches
// (fully active, half active, NaN active) and for the first and last launch
// of every benchmark.
func TestEmulateMatchesAnalytic(t *testing.T) {
	check := func(name string, l *kernel.Launch) {
		t.Helper()
		if a, e := ProfileLaunch(l), emulateLaunch(l); !reflect.DeepEqual(a, e) {
			t.Errorf("%s: analytic profile %+v, stream walk %+v", name, a, e)
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

// The per-thread-block pass must not allocate: a launch's profile costs the
// same few allocations (the profile, its two slices and the three per-shape
// scratch tables) at any size.
func TestProfileLaunchAllocsIndependentOfSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	small, large := buildLaunch(1_000, 0.5), buildLaunch(100_000, 0.5)
	a := testing.AllocsPerRun(5, func() { ProfileLaunch(small) })
	b := testing.AllocsPerRun(5, func() { ProfileLaunch(large) })
	if a != b || a > 6 {
		t.Errorf("allocations per ProfileLaunch: %v at 1k blocks, %v at 100k; want the same, at most 6", a, b)
	}
}

// Property: profiling is hardware independent — the profile depends only on
// the launch, and equal launches give equal profiles (pure function).
func TestProfileDeterministicProperty(t *testing.T) {
	f := func(n uint8, afRaw uint8) bool {
		nb := 1 + int(n%8)
		af := 0.25 + float64(afRaw%4)*0.25
		l := buildLaunch(nb, af)
		a := ProfileLaunch(l)
		b := ProfileLaunch(l)
		for tb := range a.Blocks {
			if a.Blocks[tb] != b.Blocks[tb] {
				return false
			}
		}
		return true
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
		for tb := range lp.Blocks {
			p := lp.Blocks[tb].StallProb()
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
