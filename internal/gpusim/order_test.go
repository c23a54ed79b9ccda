package gpusim

import (
	"reflect"
	"testing"
	"testing/quick"

	"tbpoint/internal/kernel"
	"tbpoint/internal/workloads"
)

// checkTBOrder runs l with a dispatch/retire hook pair (and skip, when
// non-nil, as the SkipTB hook) and holds the recorded LaunchResult.TBOrder to
// its contract: it is the sequence the hooks observed, dispatch entries
// ascend, every simulated block appears once each way and no skipped block at
// all, and there are two entries per simulated block.
func checkTBOrder(t *testing.T, name string, sim *Simulator, l *kernel.Launch, skip func(tb int) bool) {
	t.Helper()
	var seen []int32
	skipped := map[int]bool{}
	hooks := &Hooks{
		OnTBDispatch: func(tb, sm int, cycle int64) { seen = append(seen, int32(tb)) },
		OnTBRetire:   func(tb, sm int, cycle int64) { seen = append(seen, ^int32(tb)) },
	}
	if skip != nil {
		hooks.SkipTB = func(tb int) bool {
			if skip(tb) {
				skipped[tb] = true
				return true
			}
			return false
		}
	}
	res := sim.RunLaunch(l, RunOptions{Hooks: hooks})
	if !reflect.DeepEqual(res.TBOrder, seen) {
		t.Errorf("%s: recorded order differs from what the hooks observed", name)
	}
	if len(res.TBOrder) != 2*res.SimulatedTBs {
		t.Errorf("%s: %d order entries for %d simulated blocks", name, len(res.TBOrder), res.SimulatedTBs)
	}
	if res.SimulatedTBs+len(skipped) != l.NumBlocks() {
		t.Errorf("%s: %d simulated + %d skipped of %d blocks", name, res.SimulatedTBs, len(skipped), l.NumBlocks())
	}
	const dispatched, retired = 1, 2
	state := map[int]int{}
	last := -1
	for i, e := range res.TBOrder {
		tb, want, next := int(e), 0, dispatched
		if e < 0 {
			tb, want, next = int(^e), dispatched, retired
		} else {
			if tb <= last {
				t.Fatalf("%s: entry %d dispatches block %d after block %d", name, i, tb, last)
			}
			last = tb
		}
		if tb >= l.NumBlocks() || skipped[tb] || state[tb] != want {
			t.Fatalf("%s: entry %d (%d) is out of sequence for block %d (state %d, skipped %v)",
				name, i, e, tb, state[tb], skipped[tb])
		}
		state[tb] = next
	}
	for tb, s := range state {
		if s != retired {
			t.Errorf("%s: block %d was dispatched and never retired", name, tb)
		}
	}

	// The order is a property of the run, not of the hooks: a bare run
	// records the same, and the parallel engine records none.
	if skip == nil {
		if bare := sim.RunLaunch(l, RunOptions{FixedUnitInsts: 500, CollectBBV: true}); !reflect.DeepEqual(bare.TBOrder, res.TBOrder) {
			t.Errorf("%s: a run without hooks recorded a different order", name)
		}
		if sim.Config().NumSMs > 1 {
			if par := sim.RunLaunch(l, RunOptions{Workers: 2}); par.TBOrder != nil {
				t.Errorf("%s: the parallel engine recorded a block order (%d entries)", name, len(par.TBOrder))
			}
		}
	}
}

// TestTBOrderBenchmarks: the engine invariant on the first and last launch of
// each of the twelve benchmarks, with nothing skipped and with every third
// block skipped.
func TestTBOrderBenchmarks(t *testing.T) {
	sim := MustNew(DefaultConfig())
	for _, spec := range workloads.All() {
		app := spec.Build(workloads.Config{Scale: 0.01, Seed: 3})
		for _, l := range []*kernel.Launch{app.Launches[0], app.Launches[len(app.Launches)-1]} {
			checkTBOrder(t, spec.Name, sim, l, nil)
			checkTBOrder(t, spec.Name+"/skip", sim, l, func(tb int) bool { return tb%3 == 1 })
		}
	}
}

// TestTBOrderRandomLaunches: the same on the stress generator's launches,
// skipping by a seed-dependent pattern.
func TestTBOrderRandomLaunches(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSMs = 2
	sim := MustNew(cfg)
	f := func(seed int64, nb8, warps8, mask uint8) bool {
		l := randomLaunch(seed, nb8, warps8)
		checkTBOrder(t, "random", sim, l, nil)
		checkTBOrder(t, "random/skip", sim, l, func(tb int) bool { return mask>>(uint(tb)%8)&1 == 1 })
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
