package gpusim

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"tbpoint/internal/kernel"
	"tbpoint/internal/workloads"
)

// checkTBOrder runs l with a SkipTB (skipping as skip says, when non-nil)
// and holds the recorded log to its contract. At every SkipTB call, sofar's
// TBOrder and Units are the prefix of the final log that precedes the call:
// the entries recorded so far, never rewritten later, with exactly the units
// whose specified block retired inside that prefix, and the call comes right
// before the block's own dispatch entry or, for a skipped block, before the
// next dispatch entry there is. Dispatch entries ascend, every simulated
// block appears once each way and no skipped block at all, and there are two
// entries per simulated block.
func checkTBOrder(t *testing.T, name string, sim *Simulator, l *kernel.Launch, skip func(tb int) bool) {
	t.Helper()
	type call struct {
		tb, order, units int
		skipped          bool
	}
	var calls []call
	var order []int32     // every TBOrder entry a SkipTB call has seen
	var units []UnitStats // likewise for Units
	var live *LaunchResult
	skipped := map[int]bool{}
	res := sim.RunLaunch(l, RunOptions{SkipTB: func(tb int, sofar *LaunchResult) bool {
		live = sofar
		if !slices.Equal(sofar.TBOrder[:len(order)], order) || !slices.Equal(sofar.Units[:len(units)], units) {
			t.Fatalf("%s: the log seen at block %d's SkipTB rewrote an entry seen earlier", name, tb)
		}
		order = append(order, sofar.TBOrder[len(order):]...)
		units = append(units, sofar.Units[len(units):]...)
		c := call{tb: tb, order: len(sofar.TBOrder), units: len(sofar.Units), skipped: skip != nil && skip(tb)}
		calls = append(calls, c)
		if c.skipped {
			skipped[tb] = true
		}
		return c.skipped
	}})
	if live != nil && live != res {
		t.Errorf("%s: SkipTB was handed a result other than the one returned", name)
	}
	if len(calls) != l.NumBlocks() {
		t.Errorf("%s: SkipTB asked %d times for %d blocks", name, len(calls), l.NumBlocks())
	}
	if !slices.Equal(res.TBOrder[:len(order)], order) || !slices.Equal(res.Units[:len(units)], units) {
		t.Fatalf("%s: the final log does not extend what SkipTB saw", name)
	}
	// closed[i] is the number of units closed by the first i entries of the
	// final order: a unit closes at the retirement of its specified block,
	// the first block dispatched after the previous unit closed.
	closed := make([]int, len(res.TBOrder)+1)
	specified := -1
	for i, e := range res.TBOrder {
		closed[i+1] = closed[i]
		if e >= 0 {
			if specified < 0 {
				specified = int(e)
			}
		} else if int(^e) == specified {
			if u := closed[i]; u == len(res.Units) || res.Units[u].SpecifiedTB != specified {
				t.Fatalf("%s: entry %d retires specified block %d but unit %d does not close there", name, i, specified, u)
			}
			closed[i+1]++
			specified = -1
		}
	}
	if closed[len(res.TBOrder)] != len(res.Units) {
		t.Errorf("%s: %d units recorded, the order closes %d", name, len(res.Units), closed[len(res.TBOrder)])
	}
	for _, c := range calls {
		if c.units != closed[c.order] {
			t.Fatalf("%s: block %d's SkipTB saw %d units after %d entries, which close %d", name, c.tb, c.units, c.order, closed[c.order])
		}
		next := slices.IndexFunc(res.TBOrder[c.order:], func(e int32) bool { return e >= 0 })
		switch {
		case !c.skipped && (next != 0 || int(res.TBOrder[c.order]) != c.tb):
			t.Fatalf("%s: block %d's SkipTB saw %d entries, not the prefix before its dispatch", name, c.tb, c.order)
		case c.skipped && next > 0:
			t.Fatalf("%s: skipped block %d's SkipTB saw %d entries, %d short of the next dispatch", name, c.tb, c.order, next)
		case c.skipped && next == 0 && int(res.TBOrder[c.order]) <= c.tb:
			t.Fatalf("%s: skipped block %d's SkipTB comes after block %d's dispatch", name, c.tb, res.TBOrder[c.order])
		}
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

	// The order is a property of the run, not of SkipTB: a bare run records
	// the same, and the parallel engine records none.
	if skip == nil {
		if bare := sim.RunLaunch(l, RunOptions{FixedUnitInsts: 500}); !reflect.DeepEqual(bare.TBOrder, res.TBOrder) {
			t.Errorf("%s: a run without SkipTB recorded a different order", name)
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
