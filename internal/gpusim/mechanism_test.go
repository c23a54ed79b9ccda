package gpusim

import (
	"testing"

	"tbpoint/internal/isa"
	"tbpoint/internal/kernel"
	"tbpoint/internal/trace"
)

// One-mechanism tests: one SM, one warp (two for the barrier), no dispatch
// stagger, so a launch's cycle count is a closed form in the Config
// latencies of the one mechanism its program exercises; the MSHR and DRAM
// tests drive that one component directly. The expected values are derived
// from Config fields, never recorded from a run.

// singleWarp returns the one-SM, zero-dispatch-interval configuration and
// a one-block, one-warp launch of prog with the given loop trip count.
func singleWarp(prog *isa.Program, trips int, seed uint64) (Config, *kernel.Launch) {
	cfg := DefaultConfig()
	cfg.NumSMs = 1
	cfg.DispatchInterval = 0
	k := &kernel.Kernel{Name: prog.Name, Program: prog, ThreadsPerBlock: kernel.WarpSize}
	l := kernel.NewLaunch(k, 0, []kernel.TBParams{{Trips: []int{trips}, ActiveFrac: 1, Seed: seed}})
	return cfg, l
}

// TestIALUChainClosedForm: a chain of n dependent IALU instructions issues
// one every Lat.IALU cycles; the EXIT issues at n*Lat.IALU and the launch
// ends the cycle after.
func TestIALUChainClosedForm(t *testing.T) {
	const n = 50
	cfg, l := singleWarp(isa.NewBuilder("ialu").LoopBlocks(0, isa.IALU()).EndBlock().Build(), n, 1)
	res := MustNew(cfg).RunLaunch(l, RunOptions{})
	if want := int64(n*cfg.Lat.IALU + 1); res.Cycles != want {
		t.Errorf("Cycles = %d, want n*Lat.IALU + 1 = %d", res.Cycles, want)
	}
	if res.SimulatedWarpInsts != n+1 {
		t.Errorf("SimulatedWarpInsts = %d, want %d", res.SimulatedWarpInsts, n+1)
	}
}

// TestTwoWarpBarrierClosedForm: one block of two warps runs a chain of n
// dependent IALU instructions, a barrier, then EXIT. Both warps are ready
// at cycle 0 and the SM issues one instruction per cycle in ready order,
// so warp 1 trails warp 0 by one cycle throughout: warp 0 reaches the
// barrier at n*Lat.IALU and parks, warp 1 arrives one cycle later and
// releases both for Lat.BAR cycles. The two EXITs then issue on
// consecutive cycles, the last at n*Lat.IALU + 1 + Lat.BAR + 1, and the
// launch ends the cycle after.
func TestTwoWarpBarrierClosedForm(t *testing.T) {
	const n = 20
	prog := isa.NewBuilder("bar").LoopBlocks(0, isa.IALU()).EndBlock(isa.Barrier()).Build()
	cfg := DefaultConfig()
	cfg.NumSMs = 1
	cfg.DispatchInterval = 0
	k := &kernel.Kernel{Name: prog.Name, Program: prog, ThreadsPerBlock: 2 * kernel.WarpSize}
	l := kernel.NewLaunch(k, 0, []kernel.TBParams{{Trips: []int{n}, ActiveFrac: 1, Seed: 1}})
	res := MustNew(cfg).RunLaunch(l, RunOptions{})
	if want := int64(n*cfg.Lat.IALU + cfg.Lat.BAR + 3); res.Cycles != want {
		t.Errorf("Cycles = %d, want n*Lat.IALU + Lat.BAR + 3 = %d", res.Cycles, want)
	}
	if res.SimulatedWarpInsts != 2*(n+2) {
		t.Errorf("SimulatedWarpInsts = %d, want %d", res.SimulatedWarpInsts, 2*(n+2))
	}
}

// TestRandomLoadChainDRAMBound: a chain of n coalesce-1 Random loads over
// trace.RandFootprintB whose lines are all distinct misses both caches on
// every load, so each costs L2.HitLat + DRAM.BaseLat plus one row-buffer
// service time, and the bank is always free again by the next arrival.
func TestRandomLoadChainDRAMBound(t *testing.T) {
	const n, seed = 64, 3
	prog := isa.NewBuilder("gather").LoopBlocks(0, isa.Load(1, 0, 0).AsIrregular()).EndBlock().Build()
	cfg, l := singleWarp(prog, n, seed)

	synth := trace.NewSynthetic(l)
	st := synth.WarpStream(0, 0)
	var addrs [trace.MaxRequests]uint64
	lines := map[uint64]bool{}
	loads := 0
	for ev, ok := st.Next(addrs[:]); ok; ev, ok = st.Next(addrs[:]) {
		if ev.Op != isa.OpLDG {
			continue
		}
		loads++
		if ev.NumReq != 1 || addrs[0]%trace.LineSize != 0 || addrs[0] >= trace.RandFootprintB {
			t.Fatalf("load %d: %d requests, address %#x", loads, ev.NumReq, addrs[0])
		}
		lines[addrs[0]] = true
	}
	if loads != n || len(lines) != n {
		t.Fatalf("%d loads over %d distinct lines, want %d distinct", loads, len(lines), n)
	}

	res := MustNew(cfg).RunLaunch(l, RunOptions{})
	if res.DRAMAccesses != n || res.L1Hits != 0 || res.L2Hits != 0 {
		t.Errorf("DRAM accesses %d, L1 hits %d, L2 hits %d; want %d, 0, 0",
			res.DRAMAccesses, res.L1Hits, res.L2Hits, n)
	}
	// The EXIT's one issue cycle is what TestIALUChainClosedForm pins.
	memCycles := res.Cycles - 1
	base := int64(cfg.L2.HitLat + cfg.DRAM.BaseLat)
	lo, hi := n*(base+int64(cfg.DRAM.RowHitLat)), n*(base+int64(cfg.DRAM.RowMissLat))
	if memCycles < lo || memCycles > hi {
		t.Errorf("load cycles %d outside [%d, %d] (all row hits, all row misses)", memCycles, lo, hi)
	}
	hits := res.DRAMRowHits
	if want := n*base + hits*int64(cfg.DRAM.RowHitLat) + (n-hits)*int64(cfg.DRAM.RowMissLat); memCycles != want {
		t.Errorf("load cycles %d, want %d for %d row hits", memCycles, want, hits)
	}
}

// TestMSHRMergeClosedForm: two loads to one line arrive at a < b, both
// before the line's fill returns. The first misses both caches and pays
// L2.HitLat + DRAM.BaseLat + DRAM.RowMissLat on a cold bank; the second
// merges into that fill, completing with it, and costs no DRAM access. A
// load once the fill is back hits the L1.
func TestMSHRMergeClosedForm(t *testing.T) {
	const line, a, b = 0x4000, 10, 90
	cfg := DefaultConfig()
	cfg.NumSMs = 1
	m := newMemSystem(cfg)
	fill := int64(a + cfg.L2.HitLat + cfg.DRAM.BaseLat + cfg.DRAM.RowMissLat)
	if got := m.access(0, line, a, isa.OpLDG); got != fill {
		t.Fatalf("first load completes at %d, want a + L2.HitLat + DRAM.BaseLat + DRAM.RowMissLat = %d", got, fill)
	}
	if b >= fill {
		t.Fatalf("second load at %d does not arrive before the fill at %d", b, fill)
	}
	if got := m.access(0, line, b, isa.OpLDG); got != fill {
		t.Errorf("second load completes at %d, want the first's fill at %d", got, fill)
	}
	if m.MSHRMerges != 1 || m.dram.Accesses != 1 {
		t.Errorf("MSHRMerges %d, DRAM accesses %d; want 1 and 1", m.MSHRMerges, m.dram.Accesses)
	}
	c := fill + 5
	if got, want := m.access(0, line, c, isa.OpLDG), c+int64(cfg.L1.HitLat); got != want {
		t.Errorf("load after the fill completes at %d, want arrival + L1.HitLat = %d", got, want)
	}
	if m.l1[0].Hits != 1 || m.MSHRMerges != 1 || m.dram.Accesses != 1 {
		t.Errorf("after the fill: L1 hits %d, MSHRMerges %d, DRAM accesses %d; want 1, 1, 1",
			m.l1[0].Hits, m.MSHRMerges, m.dram.Accesses)
	}
}

// TestDRAMBandwidthStream: requests to distinct rows of one bank, all
// arriving at once, are served one RowMissLat apart. Spread over every
// (channel, bank) pair, the same number of requests is served
// Channels × Banks times as fast.
func TestDRAMBandwidthStream(t *testing.T) {
	cfg := DefaultConfig().DRAM
	banks := cfg.Channels * cfg.Banks
	n := 4 * banks
	miss, base := int64(cfg.RowMissLat), int64(cfg.BaseLat)
	// Row r maps to channel r % Channels and bank (r / Channels) % Banks,
	// so rows banks apart share a bank and consecutive rows do not.
	addr := func(row int) uint64 { return uint64(row) << cfg.RowBits }

	d := newDRAM(cfg)
	var oneBank int64
	for k := 0; k < n; k++ {
		done := d.access(addr(k*banks), 0)
		if want := base + int64(k+1)*miss; done != want {
			t.Fatalf("one bank: request %d completes at %d, want BaseLat + %d·RowMissLat = %d", k, done, k+1, want)
		}
		oneBank = done
	}
	d = newDRAM(cfg)
	var spread int64
	for k := 0; k < n; k++ {
		spread = max(spread, d.access(addr(k), 0))
	}
	if d.RowHits != 0 {
		t.Fatalf("spread stream: %d row hits, want distinct rows only", d.RowHits)
	}
	if oneBank-base != int64(banks)*(spread-base) {
		t.Errorf("%d requests busy one bank for %d cycles and %d banks for %d; want a %d-fold speed-up",
			n, oneBank-base, banks, spread-base, banks)
	}
}
