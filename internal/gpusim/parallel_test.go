package gpusim

import (
	"context"
	"reflect"
	"testing"

	"tbpoint/internal/faultcheck"
	"tbpoint/internal/kernel"
)

// parConfig returns an 8-SM configuration so worker counts up to 8 shard
// non-trivially.
func parConfig() Config {
	cfg := DefaultConfig()
	cfg.NumSMs = 8
	return cfg
}

func runPar(t *testing.T, sim *Simulator, opts RunOptions) LaunchResult {
	t.Helper()
	l := makeLaunch(computeKernel(), 48, 8)
	return resultFingerprint(sim.RunLaunch(l, opts))
}

func TestParallelWorkersOneIsSerial(t *testing.T) {
	sim := MustNew(parConfig())
	serial := runPar(t, sim, RunOptions{FixedUnitInsts: 500})
	one := runPar(t, sim, RunOptions{FixedUnitInsts: 500, Workers: 1})
	if !fingerprintsEqual(serial, one) {
		t.Fatal("Workers=1 differs from the serial event loop")
	}
}

func TestParallelDeterministicRepeat(t *testing.T) {
	sim := MustNew(parConfig())
	opts := RunOptions{FixedUnitInsts: 500, Workers: 4, Quantum: 256}
	a := runPar(t, sim, opts)
	b := runPar(t, sim, opts)
	if !fingerprintsEqual(a, b) {
		t.Fatal("identical (seed, workers, quantum) produced different results")
	}
	if len(a.FixedUnits) == 0 {
		t.Fatal("parallel run closed no fixed units")
	}
	for i := range a.FixedUnits {
		if !reflect.DeepEqual(a.FixedUnits[i].BBV, b.FixedUnits[i].BBV) {
			t.Fatalf("fixed unit %d BBV differs between identical runs", i)
		}
	}
}

func TestParallelWorkerCountInvariant(t *testing.T) {
	// The determinism contract is stronger than repeatability: for a fixed
	// quantum, results are independent of the worker count (including
	// counts above NumSMs, which clamp).
	sim := MustNew(parConfig())
	base := runPar(t, sim, RunOptions{FixedUnitInsts: 500, Workers: 2, Quantum: 256})
	for _, w := range []int{3, 5, 8, 64} {
		got := runPar(t, sim, RunOptions{FixedUnitInsts: 500, Workers: w, Quantum: 256})
		if !fingerprintsEqual(base, got) {
			t.Fatalf("workers=%d diverged from workers=2 at the same quantum", w)
		}
	}
}

func TestParallelMatchesSerialWork(t *testing.T) {
	// Parallel mode may move events in time (bounded by the quantum) but
	// must simulate exactly the same work — every thread block, every warp
	// instruction — and its cycle count must stay in the serial ballpark.
	kernels := map[string]*kernel.Kernel{
		"compute": computeKernel(),
		"memory":  memoryKernel(),
		"barrier": barrierKernel(),
	}
	for name, k := range kernels {
		t.Run(name, func(t *testing.T) {
			sim := MustNew(parConfig())
			l := makeLaunch(k, 48, 8)
			serial := sim.RunLaunch(l, RunOptions{})
			par := sim.RunLaunch(l, RunOptions{Workers: 4, Quantum: 256})
			if par.SimulatedTBs != serial.SimulatedTBs {
				t.Fatalf("parallel simulated %d TBs, serial %d", par.SimulatedTBs, serial.SimulatedTBs)
			}
			if par.SimulatedWarpInsts != serial.SimulatedWarpInsts {
				t.Fatalf("parallel issued %d warp insts, serial %d",
					par.SimulatedWarpInsts, serial.SimulatedWarpInsts)
			}
			div := relDivergence(serial.Cycles, par.Cycles)
			if div > 0.30 {
				t.Fatalf("cycle divergence %.3f (serial %d, parallel %d) above bound",
					div, serial.Cycles, par.Cycles)
			}
		})
	}
}

func relDivergence(serial, par int64) float64 {
	if serial == 0 {
		return 0
	}
	d := float64(par-serial) / float64(serial)
	if d < 0 {
		return -d
	}
	return d
}

// barrierLaunch has more blocks than parConfig holds at once, so SkipTB is
// also asked at epoch barriers, where retirements dispatch replacements.
func barrierLaunch() *kernel.Launch {
	k, cfg := computeKernel(), parConfig()
	return makeLaunch(k, 2*cfg.NumSMs*cfg.Limits.BlocksPerSM(k), 8)
}

func TestParallelCancelMidEpochChaos(t *testing.T) {
	// A deterministic fault (faultcheck error at the Nth SkipTB call made at
	// an epoch barrier) triggers cancellation mid-run. The abort must be
	// observed at an epoch barrier, return a consistent partial result, and
	// leave no worker deadlocked — proven by immediately reusing the
	// simulator (same arena) for clean serial and parallel runs.
	sim := MustNew(parConfig())
	l := barrierLaunch()
	ref := resultFingerprint(sim.RunLaunch(l, RunOptions{FixedUnitInsts: 500, Workers: 4}))

	inj := faultcheck.OnNth(5, faultcheck.Error)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var live *LaunchResult
	dispatched, sawRetired := 0, 0
	skip := func(tb int, sofar *LaunchResult) bool {
		live = sofar
		dispatched++
		if sofar.SimulatedTBs > 0 && inj.Fire() != nil {
			sawRetired = sofar.SimulatedTBs
			cancel()
		}
		return false
	}
	res := sim.RunLaunch(l, RunOptions{FixedUnitInsts: 500, Workers: 4, Ctx: ctx, SkipTB: skip})
	if !res.Aborted {
		t.Fatal("cancelled parallel run not flagged aborted")
	}
	if res.SimulatedTBs >= l.NumBlocks() {
		t.Fatal("aborted run simulated every thread block")
	}
	// The result SkipTB read is the one returned: it keeps the retirements
	// the cancelling call saw, and every block SkipTB let through either
	// retired or was still resident when the run stopped.
	if live != res {
		t.Fatal("SkipTB was handed a result other than the one returned")
	}
	if res.SimulatedTBs < sawRetired {
		t.Fatalf("aborted result reports %d TBs, SkipTB saw %d retired", res.SimulatedTBs, sawRetired)
	}
	cfg := parConfig()
	if resident := dispatched - res.SimulatedTBs; resident < 0 || resident > cfg.NumSMs*cfg.Limits.BlocksPerSM(computeKernel()) {
		t.Fatalf("aborted result reports %d TBs of %d dispatched", res.SimulatedTBs, dispatched)
	}

	// The pool shut down cleanly and the arena is reusable: a fresh
	// parallel run on the same simulator reproduces the reference.
	again := resultFingerprint(sim.RunLaunch(l, RunOptions{FixedUnitInsts: 500, Workers: 4}))
	if !fingerprintsEqual(ref, again) {
		t.Fatal("arena reuse after an aborted parallel run changed results")
	}
}

func TestParallelHookPanicShutsPoolDown(t *testing.T) {
	// A panic out of SkipTB at an epoch barrier unwinds RunLaunch; the
	// deferred pool shutdown must still run so no worker goroutine leaks,
	// and the simulator must remain usable.
	sim := MustNew(parConfig())
	l := barrierLaunch()
	inj := faultcheck.OnNth(3, faultcheck.Panic)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SkipTB panic did not propagate")
			}
		}()
		sim.RunLaunch(l, RunOptions{Workers: 4, SkipTB: func(tb int, sofar *LaunchResult) bool {
			if sofar.SimulatedTBs > 0 {
				_ = inj.Fire()
			}
			return false
		}})
	}()
	res := sim.RunLaunch(l, RunOptions{Workers: 4})
	if res.SimulatedTBs != l.NumBlocks() {
		t.Fatalf("post-panic run simulated %d of %d TBs", res.SimulatedTBs, l.NumBlocks())
	}
}

func TestParallelSmallQuantumBarrierHammer(t *testing.T) {
	// Tiny quanta maximize barrier crossings and deferred-request churn;
	// under -race this hammers the epoch handoff. Results must still be
	// worker-count invariant and simulate exactly the serial work.
	sim := MustNew(parConfig())
	l := makeLaunch(memoryKernel(), 32, 24)
	serial := sim.RunLaunch(l, RunOptions{})
	for _, q := range []int64{1, 3, 17} {
		var base LaunchResult
		for i, w := range []int{2, 8} {
			got := resultFingerprint(sim.RunLaunch(l, RunOptions{Workers: w, Quantum: q}))
			if got.SimulatedWarpInsts != serial.SimulatedWarpInsts || got.SimulatedTBs != serial.SimulatedTBs {
				t.Fatalf("q=%d w=%d simulated %d insts/%d TBs, serial %d/%d",
					q, w, got.SimulatedWarpInsts, got.SimulatedTBs,
					serial.SimulatedWarpInsts, serial.SimulatedTBs)
			}
			if i == 0 {
				base = got
			} else if !fingerprintsEqual(base, got) {
				t.Fatalf("q=%d: workers=%d diverged from workers=2", q, w)
			}
		}
	}
}
