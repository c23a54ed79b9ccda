package gpusim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tbpoint/internal/isa"
	"tbpoint/internal/kernel"
)

// randomProgram builds a structurally valid random program from a seed.
func randomProgram(rng *rand.Rand) *isa.Program {
	b := isa.NewBuilder("rand")
	alu := []isa.Instr{isa.IALU(), isa.FALU(), isa.SFU(), isa.Shared()}
	randMem := func() isa.Instr {
		in := isa.Load(uint8(1+rng.Intn(8)), uint8(rng.Intn(3)), 128)
		if rng.Intn(2) == 0 {
			in = isa.Store(uint8(1+rng.Intn(4)), uint8(rng.Intn(3)), 128)
		}
		if rng.Intn(3) == 0 {
			in = in.AsIrregular()
		}
		return in
	}
	blocks := 1 + rng.Intn(3)
	for i := 0; i < blocks; i++ {
		var instrs []isa.Instr
		for j := 0; j < 1+rng.Intn(4); j++ {
			if rng.Intn(3) == 0 {
				instrs = append(instrs, randMem())
			} else {
				instrs = append(instrs, alu[rng.Intn(len(alu))])
			}
		}
		if rng.Intn(2) == 0 {
			instrs = append(instrs, isa.Branch())
			b.LoopBlocks(rng.Intn(2), instrs...)
		} else {
			b.Block(instrs...)
		}
	}
	return b.EndBlock(isa.IALU()).Build()
}

// randomLaunch builds a launch of 1-24 blocks of 1-4 warps running a random
// program, all drawn from the seed.
func randomLaunch(seed int64, nb8, warps8 uint8) *kernel.Launch {
	rng := rand.New(rand.NewSource(seed))
	prog := randomProgram(rng)
	warps := 1 + int(warps8%4)
	k := &kernel.Kernel{Name: "rand", Program: prog,
		ThreadsPerBlock: warps * kernel.WarpSize}
	nb := 1 + int(nb8%24)
	params := make([]kernel.TBParams, nb)
	for i := range params {
		params[i] = kernel.TBParams{
			Trips:      []int{rng.Intn(6), 1 + rng.Intn(5)},
			ActiveFrac: 0.25 + rng.Float64()*0.75,
			Seed:       uint64(seed) + uint64(i) + 1,
		}
	}
	return kernel.NewLaunch(k, 0, params)
}

// TestRandomProgramsConservationProperty runs random kernels and checks
// the fundamental conservation law: the simulator issues exactly the warp
// instructions the launch statically contains, regardless of program
// shape, occupancy, or memory behaviour — and never deadlocks.
func TestRandomProgramsConservationProperty(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSMs = 2
	sim := MustNew(cfg)
	f := func(seed int64, nb8, warps8 uint8) bool {
		l := randomLaunch(seed, nb8, warps8)
		nb := l.NumBlocks()
		res := sim.RunLaunch(l, RunOptions{FixedUnitInsts: 300})
		var want int64
		for tb := 0; tb < nb; tb++ {
			want += l.WarpInsts(tb)
		}
		if res.SimulatedWarpInsts != want {
			t.Logf("seed %d: issued %d want %d", seed, res.SimulatedWarpInsts, want)
			return false
		}
		if res.SimulatedTBs != nb {
			return false
		}
		// Fixed units exactly tile the instruction stream.
		var sum int64
		for _, u := range res.FixedUnits {
			sum += u.WarpInsts
		}
		return sum == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestUnitsTileRun checks that specified-thread-block units partition the
// launch's timeline without gaps.
func TestUnitsTileRun(t *testing.T) {
	sim := MustNew(smallConfig())
	l := makeLaunch(memoryKernel(), 30, 5)
	res := sim.RunLaunch(l, RunOptions{})
	if len(res.Units) == 0 {
		t.Fatal("no units")
	}
	prev := int64(0)
	for i, u := range res.Units {
		if u.StartCycle != prev {
			t.Errorf("unit %d starts at %d, want %d", i, u.StartCycle, prev)
		}
		prev = u.EndCycle
	}
	if prev > res.Cycles {
		t.Errorf("last unit ends at %d beyond run end %d", prev, res.Cycles)
	}
}

func TestWakeHeapProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var h wakeHeap
		for _, v := range raw {
			h.push(wakeEntry{cycle: int64(v)})
		}
		prev := int64(-1)
		for len(h) > 0 {
			top, ok := h.peek()
			if !ok || top < prev {
				return false
			}
			if _, ok := h.popDue(top - 1); ok {
				return false // must not pop before its wake cycle
			}
			if _, ok := h.popDue(top); !ok {
				return false
			}
			prev = top
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadyQueueCompaction(t *testing.T) {
	sm := &smState{}
	// Push and pop enough entries to trigger compaction.
	for i := int32(0); i < 3000; i++ {
		sm.pushReady(warpRef{w: i})
		got, ok := sm.popReady()
		if !ok || got.w != i {
			t.Fatalf("FIFO violated at %d", i)
		}
	}
	if len(sm.ready)-sm.readyHead != 0 {
		t.Error("queue should be drained")
	}
	if _, ok := sm.popReady(); ok {
		t.Error("pop from empty queue succeeded")
	}
}

func TestMemSystemLatencyOrdering(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSMs = 1
	m := newMemSystem(cfg)
	// Cold access -> DRAM.
	cold := m.access(0, 0x1000, 0, isa.OpLDG)
	// Hot access (just loaded) -> L1.
	hot := m.access(0, 0x1000, cold, isa.OpLDG)
	l1 := hot - cold
	if l1 != int64(cfg.L1.HitLat) {
		t.Errorf("L1 hit latency %d, want %d", l1, cfg.L1.HitLat)
	}
	if cold <= int64(cfg.L1.HitLat+cfg.L2.HitLat) {
		t.Errorf("cold access latency %d should exceed L1+L2 hit time", cold)
	}
	// Evict from L1 only (fill its set), then re-access -> L2 hit.
	line := uint64(0x1000)
	sets := cfg.L1.Sets()
	for i := 1; i <= cfg.L1.Ways; i++ {
		m.access(0, line+uint64(i*sets*cfg.L1.LineB), 10_000, isa.OpLDG)
	}
	l2 := m.access(0, line, 20_000, isa.OpLDG) - 20_000
	if l2 != int64(cfg.L1.HitLat+cfg.L2.HitLat) {
		t.Errorf("L2 hit latency %d, want %d", l2, cfg.L1.HitLat+cfg.L2.HitLat)
	}
}

func TestDispatchIntervalStaggersStarts(t *testing.T) {
	k := computeKernel()
	l := makeLaunch(k, 8, 2)
	run := func(interval int) int64 {
		cfg := smallConfig()
		cfg.DispatchInterval = interval
		return MustNew(cfg).RunLaunch(l, RunOptions{}).Cycles
	}
	// A huge dispatch interval must lengthen the run (it serialises block
	// starts); a zero interval runs everything in lockstep.
	if run(10_000) <= run(0) {
		t.Error("large dispatch interval should slow the launch")
	}
	// Zero interval remains deterministic and conservative.
	cfg := smallConfig()
	cfg.DispatchInterval = 0
	res := MustNew(cfg).RunLaunch(l, RunOptions{})
	var want int64
	for tb := 0; tb < l.NumBlocks(); tb++ {
		want += l.WarpInsts(tb)
	}
	if res.SimulatedWarpInsts != want {
		t.Error("zero-interval run lost instructions")
	}
}

func TestOverallIPCWithIdleSMs(t *testing.T) {
	// One tiny block on a many-SM machine: only one SM contributes.
	cfg := DefaultConfig()
	sim := MustNew(cfg)
	l := makeLaunch(computeKernel(), 1, 2)
	res := sim.RunLaunch(l, RunOptions{})
	active := 0
	for _, s := range res.SMs {
		if s.WarpInsts > 0 {
			active++
		}
	}
	if active != 1 {
		t.Errorf("%d SMs active, want 1", active)
	}
	if ipc := res.OverallIPC(); ipc <= 0 || ipc > 1 {
		t.Errorf("OverallIPC = %v for a single active SM", ipc)
	}
}

func TestMSHRMerging(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSMs = 1
	m := newMemSystem(cfg)
	// Two concurrent requests to the same line: the second merges into the
	// first's outstanding fill.
	first := m.access(0, 0x4000, 0, isa.OpLDG)
	second := m.access(0, 0x4000, 1, isa.OpLDG)
	if second != first {
		t.Errorf("merged request completes at %d, want %d", second, first)
	}
	if m.MSHRMerges != 1 {
		t.Errorf("MSHRMerges = %d, want 1", m.MSHRMerges)
	}
	// After the fill returns, the line is an L1 hit (no merge).
	third := m.access(0, 0x4000, first+1, isa.OpLDG)
	if third != first+1+int64(cfg.L1.HitLat) {
		t.Errorf("post-fill access = %d, want L1 hit", third)
	}
}

func TestWritebackTrafficCounted(t *testing.T) {
	sim := MustNew(smallConfig())
	// A store-heavy streaming kernel with a footprint far beyond L1 must
	// generate writebacks.
	prog := isa.NewBuilder("wb").
		Block(isa.IALU()).
		LoopBlocks(0, isa.Store(1, 1, 128), isa.IALU(), isa.Branch()).
		EndBlock().
		Build()
	k := &kernel.Kernel{Name: "wb", Program: prog, ThreadsPerBlock: 64}
	l := makeLaunch(k, 20, 40)
	res := sim.RunLaunch(l, RunOptions{})
	if res.Writebacks == 0 {
		t.Error("store-streaming kernel produced no writebacks")
	}
}

// TestDivergentRequestsSerialise: an uncoalesced instruction pays at least
// one cycle per request at the SM's memory port, even on L1 hits.
func TestDivergentRequestsSerialise(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSMs = 1
	m := newMemSystem(cfg)
	// Warm a line so subsequent accesses hit.
	warm := m.access(0, 0x2000, 0, isa.OpLDG)

	// Simulate what issue() does for an 8-request divergent hit: request i
	// arrives at cycle+i.
	base := warm + 100
	var done int64
	for i := int64(0); i < 8; i++ {
		if c := m.access(0, 0x2000, base+i, isa.OpLDG); c > done {
			done = c
		}
	}
	coalesced := m.access(0, 0x2000, base+1000, isa.OpLDG) - (base + 1000)
	if done-base < coalesced+7 {
		t.Errorf("divergent completion %d cycles, want >= coalesced %d + 7 serialisation",
			done-base, coalesced)
	}
}
