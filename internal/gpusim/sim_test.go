package gpusim

import (
	"strings"
	"testing"

	"tbpoint/internal/isa"
	"tbpoint/internal/kernel"
)

// smallConfig returns a 2-SM configuration for fast tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NumSMs = 2
	return cfg
}

func computeKernel() *kernel.Kernel {
	prog := isa.NewBuilder("compute").
		Block(isa.IALU(), isa.IALU()).
		LoopBlocks(0, isa.Cat(isa.Rep(isa.FALU(), 4), isa.IALU(), isa.Branch())...).
		EndBlock().
		Build()
	return &kernel.Kernel{Name: "compute", Program: prog, ThreadsPerBlock: 64}
}

func memoryKernel() *kernel.Kernel {
	prog := isa.NewBuilder("memory").
		Block(isa.IALU()).
		LoopBlocks(0, isa.Load(8, 1, 0).AsIrregular(), isa.IALU(), isa.Branch()).
		EndBlock(isa.Store(1, 2, 128)).
		Build()
	return &kernel.Kernel{Name: "memory", Program: prog, ThreadsPerBlock: 64}
}

func barrierKernel() *kernel.Kernel {
	prog := isa.NewBuilder("barrier").
		Block(isa.IALU(), isa.Barrier(), isa.IALU()).
		EndBlock().
		Build()
	return &kernel.Kernel{Name: "barrier", Program: prog, ThreadsPerBlock: 128}
}

func makeLaunch(k *kernel.Kernel, n, trips int) *kernel.Launch {
	params := make([]kernel.TBParams, n)
	for i := range params {
		tr := []int{trips}
		if k.Program.NumTripParams() == 0 {
			tr = nil
		}
		params[i] = kernel.TBParams{Trips: tr, ActiveFrac: 1, Seed: uint64(i)}
	}
	return kernel.NewLaunch(k, 0, params)
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("accepted zero config")
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Errorf("rejected default config: %v", err)
	}
}

func TestRunLaunchInstructionConservation(t *testing.T) {
	sim := MustNew(smallConfig())
	l := makeLaunch(computeKernel(), 10, 4)
	res := sim.RunLaunch(l, RunOptions{})
	var want int64
	for tb := 0; tb < l.NumBlocks(); tb++ {
		want += l.WarpInsts(tb)
	}
	if res.SimulatedWarpInsts != want {
		t.Errorf("SimulatedWarpInsts = %d, want %d", res.SimulatedWarpInsts, want)
	}
	var perSM int64
	for _, s := range res.SMs {
		perSM += s.WarpInsts
	}
	if perSM != want {
		t.Errorf("sum of per-SM insts = %d, want %d", perSM, want)
	}
	if res.SimulatedTBs != 10 || res.SkippedTBs != 0 {
		t.Errorf("TBs simulated %d skipped %d", res.SimulatedTBs, res.SkippedTBs)
	}
	if res.Cycles <= 0 {
		t.Error("zero cycles")
	}
}

func TestOverallIPCBounds(t *testing.T) {
	sim := MustNew(smallConfig())
	res := sim.RunLaunch(makeLaunch(computeKernel(), 20, 8), RunOptions{})
	ipc := res.OverallIPC()
	if ipc <= 0 || ipc > float64(len(res.SMs)) {
		t.Errorf("OverallIPC = %v out of (0, %d]", ipc, len(res.SMs))
	}
	if tot := res.TotalIPC(); tot <= 0 || tot > float64(len(res.SMs)) {
		t.Errorf("TotalIPC = %v", tot)
	}
}

func TestComputeBoundFasterThanMemoryBound(t *testing.T) {
	sim := MustNew(smallConfig())
	c := sim.RunLaunch(makeLaunch(computeKernel(), 16, 8), RunOptions{})
	m := sim.RunLaunch(makeLaunch(memoryKernel(), 16, 8), RunOptions{})
	if c.OverallIPC() <= m.OverallIPC() {
		t.Errorf("compute IPC %v should exceed memory IPC %v",
			c.OverallIPC(), m.OverallIPC())
	}
}

func TestMoreWarpsHideLatency(t *testing.T) {
	// The same memory-bound work at higher occupancy should reach higher
	// IPC — the fundamental GPU latency-hiding property the Markov model
	// captures.
	low := DefaultConfig().WithOccupancy(4, 2)
	high := DefaultConfig().WithOccupancy(32, 2)
	l := makeLaunch(memoryKernel(), 32, 8)
	rl := MustNew(low).RunLaunch(l, RunOptions{})
	rh := MustNew(high).RunLaunch(l, RunOptions{})
	if rh.OverallIPC() <= rl.OverallIPC() {
		t.Errorf("high-occupancy IPC %v should exceed low-occupancy %v",
			rh.OverallIPC(), rl.OverallIPC())
	}
}

func TestDeterminism(t *testing.T) {
	sim := MustNew(smallConfig())
	l := makeLaunch(memoryKernel(), 12, 6)
	a := sim.RunLaunch(l, RunOptions{})
	b := sim.RunLaunch(l, RunOptions{})
	if a.Cycles != b.Cycles || a.SimulatedWarpInsts != b.SimulatedWarpInsts {
		t.Errorf("nondeterministic: (%d,%d) vs (%d,%d)",
			a.Cycles, a.SimulatedWarpInsts, b.Cycles, b.SimulatedWarpInsts)
	}
	if a.OverallIPC() != b.OverallIPC() {
		t.Error("IPC differs between identical runs")
	}
}

func TestBarrierCompletes(t *testing.T) {
	sim := MustNew(smallConfig())
	l := makeLaunch(barrierKernel(), 6, 0)
	res := sim.RunLaunch(l, RunOptions{})
	if res.SimulatedTBs != 6 {
		t.Errorf("SimulatedTBs = %d, want 6", res.SimulatedTBs)
	}
	var want int64
	for tb := 0; tb < 6; tb++ {
		want += l.WarpInsts(tb)
	}
	if res.SimulatedWarpInsts != want {
		t.Errorf("insts = %d, want %d", res.SimulatedWarpInsts, want)
	}
}

func TestDispatchGreedyOrder(t *testing.T) {
	sim := MustNew(smallConfig())
	l := makeLaunch(computeKernel(), 9, 3)
	res := sim.RunLaunch(l, RunOptions{})
	var dispatched, retired []int
	for _, e := range res.TBOrder {
		if e >= 0 {
			dispatched = append(dispatched, int(e))
		} else {
			retired = append(retired, int(^e))
		}
	}
	if len(dispatched) != 9 || len(retired) != 9 {
		t.Fatalf("dispatched %d retired %d", len(dispatched), len(retired))
	}
	for i, tb := range dispatched {
		if tb != i {
			t.Fatalf("dispatch order %v not by block ID", dispatched)
		}
	}
	if res.SimulatedTBs != 9 {
		t.Error("retire count mismatch")
	}
}

func TestSkipTB(t *testing.T) {
	sim := MustNew(smallConfig())
	l := makeLaunch(computeKernel(), 10, 4)
	var skipped []int
	res := sim.RunLaunch(l, RunOptions{SkipTB: func(tb int, sofar *LaunchResult) bool {
		if tb%2 == 1 {
			skipped = append(skipped, tb)
			return true
		}
		return false
	}})
	if res.SimulatedTBs != 5 || res.SkippedTBs != 5 {
		t.Errorf("simulated %d skipped %d, want 5/5", res.SimulatedTBs, res.SkippedTBs)
	}
	if len(skipped) != 5 {
		t.Errorf("skip events: %v", skipped)
	}
	var want int64
	for tb := 0; tb < 10; tb += 2 {
		want += l.WarpInsts(tb)
	}
	if res.SimulatedWarpInsts != want {
		t.Errorf("insts = %d, want %d (skipped blocks must not be simulated)",
			res.SimulatedWarpInsts, want)
	}
}

func TestSkipAllBlocks(t *testing.T) {
	sim := MustNew(smallConfig())
	l := makeLaunch(computeKernel(), 5, 2)
	res := sim.RunLaunch(l, RunOptions{SkipTB: func(int, *LaunchResult) bool { return true }})
	if res.SimulatedTBs != 0 || res.SkippedTBs != 5 {
		t.Errorf("simulated %d skipped %d", res.SimulatedTBs, res.SkippedTBs)
	}
	if res.SimulatedWarpInsts != 0 || res.Cycles != 0 {
		t.Error("skipped-everything run should be empty")
	}
	if res.OverallIPC() != 0 {
		t.Error("IPC of empty run should be 0")
	}
}

func TestSamplingUnits(t *testing.T) {
	sim := MustNew(smallConfig())
	l := makeLaunch(computeKernel(), 20, 4)
	res := sim.RunLaunch(l, RunOptions{})
	if len(res.Units) == 0 {
		t.Fatal("no sampling units")
	}
	// A unit closes at each retirement of a specified block: the first block
	// dispatched after the previous unit closed.
	closed, specified := 0, -1
	for _, e := range res.TBOrder {
		if e >= 0 {
			if specified < 0 {
				specified = int(e)
			}
		} else if int(^e) == specified {
			if closed < len(res.Units) && res.Units[closed].SpecifiedTB != specified {
				t.Errorf("unit %d names block %d, the order closes it at block %d",
					closed, res.Units[closed].SpecifiedTB, specified)
			}
			closed++
			specified = -1
		}
	}
	if closed != len(res.Units) {
		t.Errorf("the order closes %d units, %d recorded", closed, len(res.Units))
	}
	// Units tile the run: contiguous, non-overlapping, starting at 0.
	prevEnd := int64(0)
	var unitInsts int64
	for i, u := range res.Units {
		if u.StartCycle != prevEnd {
			t.Errorf("unit %d starts at %d, want %d", i, u.StartCycle, prevEnd)
		}
		if u.EndCycle < u.StartCycle {
			t.Errorf("unit %d ends before it starts", i)
		}
		if u.IPC() < 0 {
			t.Errorf("unit %d negative IPC", i)
		}
		prevEnd = u.EndCycle
		unitInsts += u.WarpInsts
	}
	if unitInsts > res.SimulatedWarpInsts {
		t.Errorf("units cover %d insts > total %d", unitInsts, res.SimulatedWarpInsts)
	}
	// The first unit's specified block is block 0.
	if res.Units[0].SpecifiedTB != 0 {
		t.Errorf("first specified TB = %d, want 0", res.Units[0].SpecifiedTB)
	}
}

func TestFixedUnits(t *testing.T) {
	sim := MustNew(smallConfig())
	l := makeLaunch(computeKernel(), 12, 6)
	res := sim.RunLaunch(l, RunOptions{FixedUnitInsts: 500})
	if len(res.FixedUnits) == 0 {
		t.Fatal("no fixed units")
	}
	var sum int64
	for i, f := range res.FixedUnits {
		sum += f.WarpInsts
		if i < len(res.FixedUnits)-1 && f.WarpInsts != 500 {
			t.Errorf("fixed unit %d has %d insts, want 500", i, f.WarpInsts)
		}
		if f.Cycles <= 0 {
			t.Errorf("fixed unit %d has %d cycles", i, f.Cycles)
		}
	}
	if sum != res.SimulatedWarpInsts {
		t.Errorf("fixed units cover %d of %d insts", sum, res.SimulatedWarpInsts)
	}
}

func TestFixedUnitBBV(t *testing.T) {
	sim := MustNew(smallConfig())
	l := makeLaunch(computeKernel(), 8, 6)
	res := sim.RunLaunch(l, RunOptions{FixedUnitInsts: 400})
	var bbvSum int64
	for _, f := range res.FixedUnits {
		if len(f.BBV) == 0 {
			t.Fatal("missing BBV")
		}
		for _, c := range f.BBV {
			bbvSum += c
		}
	}
	if bbvSum != res.SimulatedWarpInsts {
		t.Errorf("BBV total %d != issued %d", bbvSum, res.SimulatedWarpInsts)
	}
}

func TestCacheStatsPopulated(t *testing.T) {
	sim := MustNew(smallConfig())
	res := sim.RunLaunch(makeLaunch(memoryKernel(), 10, 10), RunOptions{})
	if res.L1Hits+res.L1Misses == 0 {
		t.Error("no L1 accesses recorded")
	}
	if res.DRAMAccesses == 0 {
		t.Error("memory-bound kernel should reach DRAM")
	}
	// Every L1 miss and every dirty L1 eviction reaches the L2; every L2
	// miss and dirty L2 eviction reaches DRAM.
	if got := res.L2Hits + res.L2Misses; got > res.L1Misses+res.Writebacks || got < res.L1Misses {
		t.Errorf("L2 accesses %d outside [L1 misses %d, +writebacks %d]",
			got, res.L1Misses, res.L1Misses+res.Writebacks)
	}
	if res.DRAMAccesses < res.L2Misses {
		t.Errorf("DRAM accesses %d < L2 misses %d", res.DRAMAccesses, res.L2Misses)
	}
}

// TestOccupancyRespected: live blocks, counted along TBOrder, peak at
// exactly NumSMs x occupancy. On one SM that is the SM's own residency, so
// the run checks the per-SM bound.
func TestOccupancyRespected(t *testing.T) {
	k := computeKernel()
	one := smallConfig()
	one.NumSMs = 1
	for _, cfg := range []Config{one, smallConfig()} {
		res := MustNew(cfg).RunLaunch(makeLaunch(k, 40, 4), RunOptions{})
		live, peak := 0, 0
		for _, e := range res.TBOrder {
			if e >= 0 {
				live++
				peak = max(peak, live)
			} else {
				live--
			}
		}
		if want := cfg.NumSMs * cfg.Limits.BlocksPerSM(k); peak != want {
			t.Errorf("%d SMs: peak of %d live blocks, want NumSMs x occupancy = %d", cfg.NumSMs, peak, want)
		}
	}
}

func TestWithOccupancyConfig(t *testing.T) {
	cfg := DefaultConfig().WithOccupancy(16, 8)
	if cfg.NumSMs != 8 || cfg.Limits.MaxWarps != 16 {
		t.Errorf("WithOccupancy produced %+v", cfg)
	}
	if cfg.Name() != "W16S8" {
		t.Errorf("Name = %q", cfg.Name())
	}
}

func TestEmptyLaunch(t *testing.T) {
	sim := MustNew(smallConfig())
	l := kernel.NewLaunch(computeKernel(), 0, nil)
	res := sim.RunLaunch(l, RunOptions{})
	if res.SimulatedTBs != 0 || res.Cycles != 0 {
		t.Error("empty launch should produce empty result")
	}
}

func TestLatencyOf(t *testing.T) {
	lat := DefaultLatencies()
	if lat.Of(isa.OpIALU) != lat.IALU || lat.Of(isa.OpSFU) != lat.SFU {
		t.Error("Of mapping wrong")
	}
	if lat.Of(isa.OpLDG) != 0 {
		t.Error("memory ops should have no fixed latency")
	}
}

func TestCacheModel(t *testing.T) {
	c := newCache(CacheConfig{SizeB: 1024, LineB: 128, Ways: 2, HitLat: 10})
	// 4 sets, 2 ways.
	if hit, _ := c.access(0, 0, false); hit {
		t.Error("first access should miss")
	}
	if hit, _ := c.access(0, 1, false); !hit {
		t.Error("second access should hit")
	}
	if hit, _ := c.access(64, 2, false); !hit {
		t.Error("same-line access should hit")
	}
	// Fill the set with conflicting lines: set = line % 4; line 0, 4, 8 all map to set 0.
	c.access(4*128, 3, false)
	c.access(8*128, 4, false) // evicts LRU (line 0)
	if hit, _ := c.access(0, 5, false); hit {
		t.Error("evicted line should miss")
	}
	c.reset()
	if c.Hits != 0 || c.Misses != 0 {
		t.Error("reset did not clear stats")
	}
	if hit, _ := c.access(0, 0, false); hit {
		t.Error("reset cache should miss")
	}
}

func TestCacheWriteback(t *testing.T) {
	c := newCache(CacheConfig{SizeB: 512, LineB: 128, Ways: 2, HitLat: 10})
	// 2 sets, 2 ways; lines 0, 2, 4 map to set 0.
	c.access(0, 0, true) // dirty fill
	c.access(2*128, 1, false)
	_, wb := c.access(4*128, 2, false) // evicts line 0 (dirty)
	if wb != 0 {
		// line 0's address is 0 — indistinguishable from "no writeback";
		// use a non-zero dirty line instead.
		t.Fatalf("unexpected writeback %#x", wb)
	}
	c.reset()
	c.access(6*128, 0, true) // dirty fill, set 0
	c.access(0, 1, false)
	_, wb = c.access(2*128, 2, false) // evicts dirty line 6
	if wb != 6*128 {
		t.Errorf("writeback = %#x, want %#x", wb, 6*128)
	}
	if c.Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1", c.Writebacks)
	}
	// Clean evictions produce no writeback.
	_, wb = c.access(4*128, 3, false)
	if wb != 0 {
		t.Errorf("clean eviction produced writeback %#x", wb)
	}
}

func TestDRAMQueueing(t *testing.T) {
	d := newDRAM(DRAMConfig{Channels: 1, Banks: 1, RowBits: 11, RowHitLat: 20, RowMissLat: 80, BaseLat: 100})
	// First access: row miss, bank free -> done at 80+100.
	if got := d.access(0, 0); got != 180 {
		t.Errorf("first access latency = %d, want 180", got)
	}
	// Same row immediately: row hit but queues behind first (bank free at 80).
	if got := d.access(128, 0); got != 200 {
		t.Errorf("second access = %d, want 200 (80 queue + 20 hit + 100 base)", got)
	}
	// Different row: row miss, queues at 100.
	if got := d.access(1<<20, 0); got != 280 {
		t.Errorf("third access = %d, want 280", got)
	}
	if d.RowHits != 1 || d.Accesses != 3 {
		t.Errorf("stats: hits %d accesses %d", d.RowHits, d.Accesses)
	}
}

// TestDRAMChannelsSpread reads back which (channel, bank) entry each access
// occupied — the one whose nextFree or openRow changed — and requires its
// channel to be the row mod Channels, with every channel hit.
func TestDRAMChannelsSpread(t *testing.T) {
	for _, channels := range []int{1, 6, 7} {
		cfg := DefaultConfig().DRAM
		cfg.Channels = channels
		d := newDRAM(cfg)
		hit := make([]bool, channels)
		for i := 0; i < 4*channels*cfg.Banks; i++ {
			row := uint64(i*13 + 5)
			free := append([]int64(nil), d.nextFree...)
			open := append([]uint64(nil), d.openRow...)
			d.access(row<<uint(cfg.RowBits), int64(i))
			entry := -1
			for b := range free {
				if free[b] != d.nextFree[b] || open[b] != d.openRow[b] {
					if entry >= 0 {
						t.Fatalf("%d channels, row %d: entries %d and %d both changed", channels, row, entry, b)
					}
					entry = b
				}
			}
			if entry < 0 {
				t.Fatalf("%d channels, row %d: no bank entry changed", channels, row)
			}
			ch := entry / cfg.Banks
			if want := int(row % uint64(channels)); ch != want {
				t.Fatalf("%d channels, row %d: went to channel %d, want %d", channels, row, ch, want)
			}
			hit[ch] = true
		}
		for ch, ok := range hit {
			if !ok {
				t.Errorf("%d channels: channel %d never hit", channels, ch)
			}
		}
	}
}

func TestMustNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(zero config) did not panic")
		}
	}()
	MustNew(Config{})
}

func TestConfigValidateCases(t *testing.T) {
	bad := []Config{
		{},
		func() Config { c := DefaultConfig(); c.NumSMs = 0; return c }(),
		func() Config { c := DefaultConfig(); c.L1.Ways = 0; return c }(),
		func() Config { c := DefaultConfig(); c.L2.LineB = 0; return c }(),
		func() Config { c := DefaultConfig(); c.DRAM.Channels = 0; return c }(),
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestConfigValidateNamesField: every timing field that would let time run
// backwards, and a DRAM row size a shift cannot express, is rejected with
// an error naming the field. Zero stays valid for all of them.
func TestConfigValidateNamesField(t *testing.T) {
	cases := []struct {
		field string
		set   func(c *Config)
	}{
		{"Lat.IALU", func(c *Config) { c.Lat.IALU = -1 }},
		{"Lat.FALU", func(c *Config) { c.Lat.FALU = -1 }},
		{"Lat.SFU", func(c *Config) { c.Lat.SFU = -1 }},
		{"Lat.LDS", func(c *Config) { c.Lat.LDS = -1 }},
		{"Lat.BRA", func(c *Config) { c.Lat.BRA = -1 }},
		{"Lat.BAR", func(c *Config) { c.Lat.BAR = -1 }},
		{"L1.HitLat", func(c *Config) { c.L1.HitLat = -100 }},
		{"L2.HitLat", func(c *Config) { c.L2.HitLat = -1 }},
		{"DRAM.RowHitLat", func(c *Config) { c.DRAM.RowHitLat = -1 }},
		{"DRAM.RowMissLat", func(c *Config) { c.DRAM.RowMissLat = -50 }},
		{"DRAM.BaseLat", func(c *Config) { c.DRAM.BaseLat = -1 }},
		{"DRAM.RowBits", func(c *Config) { c.DRAM.RowBits = -1 }},
		{"DRAM.RowBits", func(c *Config) { c.DRAM.RowBits = 64 }},
		{"DispatchInterval", func(c *Config) { c.DispatchInterval = -1 }},
	}
	for _, tc := range cases {
		c := DefaultConfig()
		tc.set(&c)
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Validate() = %v, want an error naming the field", tc.field, err)
		}
	}
	zero := DefaultConfig()
	zero.Lat = Latencies{}
	zero.L1.HitLat, zero.L2.HitLat = 0, 0
	zero.DRAM.RowBits, zero.DRAM.RowHitLat, zero.DRAM.RowMissLat, zero.DRAM.BaseLat = 0, 0, 0, 0
	zero.DispatchInterval = 0
	if err := zero.Validate(); err != nil {
		t.Errorf("all-zero timing rejected: %v", err)
	}
}
