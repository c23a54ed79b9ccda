package gpusim

import (
	"testing"

	"tbpoint/internal/isa"
	"tbpoint/internal/kernel"
	"tbpoint/internal/trace"
)

// One-mechanism tests: one SM, one warp, no dispatch stagger, so a launch's
// cycle count is a closed form in the Config latencies of the one mechanism
// its program exercises. The expected values are derived from Config
// fields, never recorded from a run.

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
