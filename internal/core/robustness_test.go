package core

import (
	"context"
	"errors"
	"testing"

	"tbpoint/internal/gpusim"
	"tbpoint/internal/kernel"
)

func TestRepLaunchesSorted(t *testing.T) {
	// Launch 0's cluster is represented by launch 2, so iteration in launch
	// order discovers the reps out of order: [2, 1].
	r := &InterResult{
		Assign:      []int{0, 1, 0, 1},
		Reps:        map[int]int{0: 2, 1: 1},
		NumClusters: 2,
	}
	got := r.RepLaunches()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("RepLaunches() = %v, want the sorted-unique set [1 2]", got)
	}
}

func TestSamplerIdleGapResetsWarmingEvidence(t *testing.T) {
	regions := []int{0, 0, 0, 0}
	s := newRegionSampler(tableOf(regions, 2), fakeProfile(4, 100),
		Options{WarmStable: 1, WarmWindow: 0})
	s.onDispatch(0)
	s.onUnitClose(unit(0, 1.0))
	if s.state != stateWarming || !s.havePrev {
		t.Fatal("setup: expected mid-warming with one unit of evidence")
	}

	// The last resident retires mid-warming: a dispatch gap follows, and
	// the pre-gap IPC must not seed the post-gap stability comparison.
	s.onRetire(0)
	if s.state != stateWarming {
		t.Fatalf("idle gap should stay in warming, got state %v", s.state)
	}
	if s.havePrev || s.stableCount != 0 || len(s.history) != 0 {
		t.Fatal("idle gap kept stale warming evidence")
	}

	s.onDispatch(1)
	s.onUnitClose(unit(1, 1.05))
	if s.state == stateFastForward {
		t.Fatal("post-gap unit fast-forwarded against stale pre-gap IPC")
	}
	// Fresh post-gap evidence still warms up normally.
	s.onUnitClose(unit(2, 1.06))
	if s.state != stateFastForward {
		t.Fatalf("fresh stable pair should fast-forward, state %v", s.state)
	}
}

func TestRunPreCancelledContext(t *testing.T) {
	sim := gpusim.MustNew(testConfig())
	k := phasedKernel()
	app := &kernel.App{Name: "cancelled", Launches: []*kernel.Launch{
		uniformLaunch(k, 100, 8, 3),
		uniformLaunch(k, 100, 8, 3),
	}}
	prof := ProfileApp(app)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.Ctx = ctx
	if _, err := Run(sim, prof, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestRunUncancelledContextMatchesNoContext(t *testing.T) {
	sim := gpusim.MustNew(testConfig())
	k := phasedKernel()
	var launches []*kernel.Launch
	for i := 0; i < 4; i++ {
		launches = append(launches, uniformLaunch(k, 150, 8, 3))
	}
	app := &kernel.App{Name: "ctxsame", Launches: launches}
	prof := ProfileApp(app)

	plain, err := Run(sim, prof, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Ctx = context.Background()
	withCtx, err := Run(sim, prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Estimate != withCtx.Estimate {
		t.Fatalf("estimates differ with a live context:\n%+v\n%+v",
			plain.Estimate, withCtx.Estimate)
	}
}
