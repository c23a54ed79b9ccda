package gpusim

import (
	"context"
	"testing"

	"tbpoint/internal/metrics"
)

// resultFingerprint captures every deterministic field of a LaunchResult for
// bit-identity comparisons.
func resultFingerprint(r *LaunchResult) LaunchResult {
	cp := *r
	cp.SMs = append([]SMStat(nil), r.SMs...)
	cp.Units = append([]UnitStats(nil), r.Units...)
	cp.FixedUnits = append([]FixedUnit(nil), r.FixedUnits...)
	return cp
}

func fingerprintsEqual(a, b LaunchResult) bool {
	if a.Cycles != b.Cycles || a.SimulatedWarpInsts != b.SimulatedWarpInsts ||
		a.SimulatedTBs != b.SimulatedTBs || a.SkippedTBs != b.SkippedTBs ||
		a.Aborted != b.Aborted ||
		len(a.SMs) != len(b.SMs) || len(a.Units) != len(b.Units) ||
		len(a.FixedUnits) != len(b.FixedUnits) {
		return false
	}
	for i := range a.SMs {
		if a.SMs[i] != b.SMs[i] {
			return false
		}
	}
	for i := range a.Units {
		if a.Units[i] != b.Units[i] {
			return false
		}
	}
	for i := range a.FixedUnits {
		if a.FixedUnits[i].WarpInsts != b.FixedUnits[i].WarpInsts ||
			a.FixedUnits[i].Cycles != b.FixedUnits[i].Cycles {
			return false
		}
	}
	return true
}

func TestUncancelledCtxIsBitIdentical(t *testing.T) {
	sim := MustNew(smallConfig())
	l := makeLaunch(computeKernel(), 12, 6)
	plain := sim.RunLaunch(l, RunOptions{FixedUnitInsts: 500})
	withCtx := sim.RunLaunch(l, RunOptions{FixedUnitInsts: 500, Ctx: context.Background()})
	if plain.Aborted || withCtx.Aborted {
		t.Fatal("uncancelled run flagged aborted")
	}
	if !fingerprintsEqual(resultFingerprint(plain), resultFingerprint(withCtx)) {
		t.Fatal("run with live context differs from run without one")
	}
}

func TestPreCancelledCtxAbortsImmediately(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sim := MustNew(smallConfig())
	res := sim.RunLaunch(makeLaunch(computeKernel(), 20, 8), RunOptions{Ctx: ctx})
	if !res.Aborted {
		t.Fatal("pre-cancelled run not flagged aborted")
	}
	if res.SimulatedTBs != 0 || res.SimulatedWarpInsts != 0 {
		t.Fatalf("pre-cancelled run simulated %d TBs / %d insts",
			res.SimulatedTBs, res.SimulatedWarpInsts)
	}
}

func TestCancelMidRunReturnsPartialResult(t *testing.T) {
	sim := MustNew(smallConfig())
	l := makeLaunch(computeKernel(), 40, 8)
	total := l.NumBlocks()

	// Cancel from SkipTB once 5 blocks have retired: the next sampling-unit
	// boundary observes it and the run stops early with a partial result.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := sim.RunLaunch(l, RunOptions{
		Ctx: ctx,
		SkipTB: func(tb int, sofar *LaunchResult) bool {
			if sofar.SimulatedTBs >= 5 {
				cancel()
			}
			return false
		},
	})
	if !res.Aborted {
		t.Fatal("cancelled run not flagged aborted")
	}
	if res.SimulatedTBs == 0 {
		t.Fatal("aborted run reports no progress")
	}
	if res.SimulatedTBs >= total {
		t.Fatalf("run simulated all %d blocks despite mid-run cancel", total)
	}
	if res.SimulatedWarpInsts <= 0 || res.Cycles <= 0 {
		t.Fatalf("partial result lacks counters: insts=%d cycles=%d",
			res.SimulatedWarpInsts, res.Cycles)
	}
	// Closed sampling units of the simulated prefix are complete and
	// internally consistent.
	for _, u := range res.Units {
		if u.EndCycle <= u.StartCycle || u.WarpInsts <= 0 {
			t.Fatalf("aborted run kept an incomplete unit: %+v", u)
		}
	}
}

// TestCancelledRunCountsEveryDispatch: sched.tb_dispatch counts blocks
// dispatched, not blocks retired, so a cancelled run also counts the blocks
// still in flight when it stopped. Every SkipTB call that returns false is
// followed by one dispatch, in both engines; the serial engine also logs
// each dispatch in TBOrder.
func TestCancelledRunCountsEveryDispatch(t *testing.T) {
	l := barrierLaunch()
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		mc := metrics.New()
		letThrough := 0
		res := MustNew(parConfig()).RunLaunch(l, RunOptions{
			Ctx:     ctx,
			Workers: workers,
			Metrics: mc,
			SkipTB: func(tb int, sofar *LaunchResult) bool {
				if sofar.SimulatedTBs >= 3 {
					cancel()
				}
				letThrough++
				return false
			},
		})
		cancel()
		if !res.Aborted {
			t.Fatalf("workers=%d: cancelled run not flagged aborted", workers)
		}
		got := mc.Count(metrics.SchedTBDispatch)
		if got != uint64(letThrough) || got <= uint64(res.SimulatedTBs) {
			t.Errorf("workers=%d: sched.tb_dispatch = %d, want the %d blocks let through (%d retired)",
				workers, got, letThrough, res.SimulatedTBs)
		}
		if workers > 1 {
			continue
		}
		logged := 0
		for _, e := range res.TBOrder {
			if e >= 0 {
				logged++
			}
		}
		if got != uint64(logged) {
			t.Errorf("sched.tb_dispatch = %d, TBOrder logs %d dispatches", got, logged)
		}
	}
}

func TestCancelAtFixedUnitBoundary(t *testing.T) {
	sim := MustNew(smallConfig())
	l := makeLaunch(computeKernel(), 40, 8)
	full := sim.RunLaunch(l, RunOptions{FixedUnitInsts: 300})
	if len(full.FixedUnits) < 4 {
		t.Skipf("launch too small for the boundary test: %d fixed units", len(full.FixedUnits))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := sim.RunLaunch(l, RunOptions{
		FixedUnitInsts: 300,
		Ctx:            ctx,
		// Cancel at the first dispatch after two fixed units have closed.
		SkipTB: func(tb int, sofar *LaunchResult) bool {
			if len(sofar.FixedUnits) >= 2 {
				cancel()
			}
			return false
		},
	})
	if !res.Aborted {
		t.Fatal("not aborted")
	}
	if len(res.FixedUnits) >= len(full.FixedUnits) {
		t.Fatalf("aborted run closed %d fixed units, full run %d",
			len(res.FixedUnits), len(full.FixedUnits))
	}
	for _, f := range res.FixedUnits {
		if f.WarpInsts < 300 {
			t.Fatalf("aborted run kept a short fixed unit: %+v", f)
		}
	}
}

func TestAbortedArenaIsReusableForCleanRun(t *testing.T) {
	// An aborted run leaves live thread blocks behind in the arena; the next
	// (pooled) run must still be bit-identical to a fresh simulator's.
	sim := MustNew(smallConfig())
	l := makeLaunch(memoryKernel(), 24, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = sim.RunLaunch(l, RunOptions{Ctx: ctx})

	reused := sim.RunLaunch(l, RunOptions{FixedUnitInsts: 400})
	fresh := MustNew(smallConfig()).RunLaunch(l, RunOptions{FixedUnitInsts: 400})
	if !fingerprintsEqual(resultFingerprint(reused), resultFingerprint(fresh)) {
		t.Fatal("run on an arena recycled from an aborted run is not bit-identical")
	}
}
