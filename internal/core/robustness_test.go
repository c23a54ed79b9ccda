package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"testing/iotest"

	"tbpoint/internal/faultcheck"
	"tbpoint/internal/funcsim"
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

func TestReadRegionTableRejectsBadRegionIDs(t *testing.T) {
	cases := map[string]string{
		"negative ID": `{"format":"tbpoint-region-table-v1","occupancy":1,"numBlocks":4,"numRegions":2,
		  "rows":[{"Start":0,"End":2,"ID":0},{"Start":2,"End":4,"ID":-1}]}`,
		"numRegions overcounts": `{"format":"tbpoint-region-table-v1","occupancy":1,"numBlocks":4,"numRegions":3,
		  "rows":[{"Start":0,"End":2,"ID":0},{"Start":2,"End":4,"ID":1}]}`,
		"numRegions undercounts": `{"format":"tbpoint-region-table-v1","occupancy":1,"numBlocks":4,"numRegions":1,
		  "rows":[{"Start":0,"End":2,"ID":0},{"Start":2,"End":4,"ID":1}]}`,
	}
	for name, data := range cases {
		if _, err := ReadRegionTable(strings.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Gapped IDs (the outlier post-processing can vacate clusters) remain
	// legal as long as numRegions counts the distinct IDs.
	ok := `{"format":"tbpoint-region-table-v1","occupancy":1,"numBlocks":4,"numRegions":2,
	  "rows":[{"Start":0,"End":2,"ID":0},{"Start":2,"End":4,"ID":5}]}`
	rt, err := ReadRegionTable(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("gapped-but-consistent IDs rejected: %v", err)
	}
	if rt.NumRegions != 2 {
		t.Fatalf("NumRegions = %d, want 2", rt.NumRegions)
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

// TestChaosPersistReaderFaults streams a valid region table through a
// fault-injecting reader and asserts the loader degrades to an error — never
// a panic, never a silently-truncated table — at every failure position.
func TestChaosPersistReaderFaults(t *testing.T) {
	k := phasedKernel()
	l := launchWithPhases(k, 120, [][2]int{{12, 1}, {2, 8}})
	rt := IdentifyRegions(funcsim.ProfileLaunch(l), 12, 0.2, 0.3)

	var table bytes.Buffer
	if err := WriteRegionTable(&table, rt); err != nil {
		t.Fatal(err)
	}

	// One-byte reads force one injector consultation per byte, so a seeded
	// fault inside the span always lands mid-stream regardless of how the
	// JSON decoder buffers.
	span := int64(len(table.Bytes()))
	for seed := uint64(0); seed < 16; seed++ {
		inj := faultcheck.Seeded(seed, span, faultcheck.Error)
		r := iotest.OneByteReader(faultcheck.Reader(bytes.NewReader(table.Bytes()), inj))
		if _, err := ReadRegionTable(r); err == nil {
			t.Fatalf("seed %d: region table loaded through a failing reader", seed)
		}
	}
}
