package core

import (
	"testing"

	"tbpoint/internal/funcsim"
	"tbpoint/internal/gpusim"
)

// fakeProfile builds a LaunchProfile of n blocks with uniform counters (one
// shape) for driving the sampler state machine directly.
func fakeProfile(n int, warpInsts int64) *funcsim.LaunchProfile {
	return &funcsim.LaunchProfile{
		Shapes: []funcsim.TBProfile{{
			WarpInsts:   warpInsts,
			ThreadInsts: warpInsts * 32,
			MemRequests: warpInsts / 5,
		}},
		ShapeOf: make([]uint32, n),
	}
}

// tableOf builds a region table directly from a per-block region slice.
func tableOf(regions []int, occ int) *RegionTable {
	n := 0
	seen := map[int]bool{}
	for _, r := range regions {
		seen[r] = true
	}
	n = len(seen)
	return &RegionTable{Occupancy: occ, RegionOf: regions, NumRegions: n}
}

func unit(tb int, ipc float64) gpusim.UnitStats {
	// 1000-cycle unit with the IPC encoded via warp instructions.
	return gpusim.UnitStats{
		SpecifiedTB: tb,
		StartCycle:  0,
		EndCycle:    1000,
		WarpInsts:   int64(ipc * 1000),
	}
}

func TestSamplerEnterRequiresUniformResidents(t *testing.T) {
	regions := []int{0, 0, 0, 1, 1, 1}
	s := newRegionSampler(tableOf(regions, 2), fakeProfile(6, 100), Options{WarmTol: 0.1, WarmStable: 1, WarmWindow: 0})

	s.onDispatch(0)
	if s.state != stateWarming || s.current != 0 {
		t.Fatalf("single resident should enter region 0: state=%v current=%d", s.state, s.current)
	}
	// A resident from a different region forces an exit.
	s.onDispatch(3)
	if s.state != stateOutside {
		t.Fatalf("mixed residents should exit: state=%v", s.state)
	}
	// Block 0 retires; the remaining resident (3) is uniform region 1.
	s.onRetire(0)
	if s.state != stateWarming || s.current != 1 {
		t.Fatalf("uniform region-1 residents should re-enter: state=%v current=%d", s.state, s.current)
	}
}

func TestSamplerWarmingToFastForward(t *testing.T) {
	regions := []int{0, 0, 0, 0, 0, 0}
	s := newRegionSampler(tableOf(regions, 2), fakeProfile(6, 100), Options{WarmTol: 0.1, WarmStable: 1, WarmWindow: 0})
	s.onDispatch(0)

	// First unit: no previous IPC, keeps warming.
	s.onUnitClose(unit(0, 1.00))
	if s.state != stateWarming {
		t.Fatal("one unit should not end warming")
	}
	// Second unit within 10%: fast-forward begins, region IPC recorded.
	s.onUnitClose(unit(1, 1.05))
	if s.state != stateFastForward {
		t.Fatalf("stable pair should fast-forward: state=%v", s.state)
	}
	if got := s.regionIPC[0]; got != 1.05 {
		t.Errorf("region IPC = %v, want the last warming unit's 1.05", got)
	}
	// Now same-region blocks are skipped, and booked.
	if !s.skipTB(2) {
		t.Error("same-region block not skipped during fast-forward")
	}
	if s.skipped[0] != 100 {
		t.Errorf("skip accounting = %v", s.skipped)
	}
}

func TestSamplerUnstableWarmingContinues(t *testing.T) {
	regions := []int{0, 0, 0, 0}
	s := newRegionSampler(tableOf(regions, 2), fakeProfile(4, 100), Options{WarmTol: 0.1, WarmStable: 1, WarmWindow: 0})
	s.onDispatch(0)
	s.onUnitClose(unit(0, 1.0))
	s.onUnitClose(unit(1, 1.5)) // 50% jump: keep warming
	if s.state != stateWarming {
		t.Fatal("unstable units must keep warming")
	}
	s.onUnitClose(unit(2, 1.52)) // now stable vs 1.5
	if s.state != stateFastForward {
		t.Fatal("stabilised units should fast-forward")
	}
}

func TestSamplerWarmStableRequiresConsecutive(t *testing.T) {
	regions := []int{0, 0, 0, 0, 0, 0}
	s := newRegionSampler(tableOf(regions, 2), fakeProfile(6, 100), Options{WarmTol: 0.1, WarmStable: 2, WarmWindow: 0})
	s.onDispatch(0)
	s.onUnitClose(unit(0, 1.00))
	s.onUnitClose(unit(1, 1.02)) // stable #1
	if s.state != stateWarming {
		t.Fatal("WarmStable=2 should need two stable comparisons")
	}
	s.onUnitClose(unit(2, 1.30)) // breaks the streak
	s.onUnitClose(unit(3, 1.31)) // stable #1 again
	if s.state != stateWarming {
		t.Fatal("streak must restart after instability")
	}
	s.onUnitClose(unit(4, 1.32)) // stable #2
	if s.state != stateFastForward {
		t.Fatal("two consecutive stable comparisons should fast-forward")
	}
}

func TestSamplerExitOnForeignDispatch(t *testing.T) {
	regions := []int{0, 0, 0, 1, 1, 1}
	s := newRegionSampler(tableOf(regions, 2), fakeProfile(6, 100), Options{WarmTol: 0.1, WarmStable: 1, WarmWindow: 0})
	s.onDispatch(0)
	s.onUnitClose(unit(0, 1.0))
	s.onUnitClose(unit(1, 1.0))
	if s.state != stateFastForward {
		t.Fatal("setup failed")
	}
	// A foreign block consulted for skipping exits the region and is not
	// skipped itself.
	if s.skipTB(3) {
		t.Error("foreign block must not be skipped")
	}
	if s.state != stateOutside {
		t.Error("foreign block should exit the region")
	}
}

func TestSamplerClusterIPCReuse(t *testing.T) {
	// Region 0 appears in two separated runs; once warmed, the second run
	// fast-forwards immediately on entry.
	regions := []int{0, 0, 1, 1, 0, 0}
	s := newRegionSampler(tableOf(regions, 2), fakeProfile(6, 100), Options{WarmTol: 0.1, WarmStable: 1, WarmWindow: 0})
	s.onDispatch(0)
	s.onUnitClose(unit(0, 1.0))
	s.onUnitClose(unit(1, 1.0))
	if s.state != stateFastForward {
		t.Fatal("setup failed")
	}
	// Exit via a region-1 block, which then retires leaving a region-0
	// block resident.
	s.skipTB(2) // exits
	s.onDispatch(2)
	s.onRetire(0)
	s.onRetire(2)
	s.onDispatch(4)
	if s.state != stateFastForward || s.current != 0 {
		t.Fatalf("re-entering a warmed cluster should fast-forward immediately: state=%v", s.state)
	}
	if !s.skipTB(5) {
		t.Error("second run of the warmed cluster should skip")
	}
}

func TestSamplerIgnoresForeignUnits(t *testing.T) {
	regions := []int{0, 0, 1, 1}
	s := newRegionSampler(tableOf(regions, 2), fakeProfile(4, 100), Options{WarmTol: 0.1, WarmStable: 1, WarmWindow: 0})
	s.onDispatch(0)
	// A unit whose specified block is in another region must not count as
	// warming evidence.
	s.onUnitClose(unit(2, 1.0))
	s.onUnitClose(unit(3, 1.0))
	if s.state != stateWarming {
		t.Fatal("foreign units consumed as warming evidence")
	}
	if s.warmUnits != 0 {
		t.Errorf("warmUnits = %d, want 0", s.warmUnits)
	}
}

func TestSamplerNoEnterOnEmptyOrNegative(t *testing.T) {
	regions := []int{-1, -1, 0, 0}
	s := newRegionSampler(tableOf(regions, 2), fakeProfile(4, 100), Options{WarmTol: 0.1, WarmStable: 1, WarmWindow: 0})
	s.maybeEnter() // no residents
	if s.state != stateOutside {
		t.Fatal("entered with no residents")
	}
	s.onDispatch(0) // region -1 blocks never form a region
	if s.state != stateOutside {
		t.Fatal("entered a negative region")
	}
	if s.skipTB(1) {
		t.Error("skipped while outside")
	}
}

func TestSamplerZeroIPCUnitHandled(t *testing.T) {
	regions := []int{0, 0, 0}
	s := newRegionSampler(tableOf(regions, 2), fakeProfile(3, 100), Options{WarmTol: 0.1, WarmStable: 1, WarmWindow: 0})
	s.onDispatch(0)
	s.onUnitClose(unit(0, 0)) // degenerate zero-IPC unit
	s.onUnitClose(unit(1, 1.0))
	// prevIPC was 0: the comparison guard (prev > 0) must prevent division
	// by zero and keep warming.
	if s.state == stateFastForward && s.regionIPC[0] == 0 {
		t.Error("zero IPC recorded for fast-forwarding")
	}
}
