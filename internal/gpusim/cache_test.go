package gpusim

import (
	"math/rand"
	"testing"
)

// firstLeast is the linear victim scan: the first way with the least
// lastUse.
func firstLeast(lu []int64) int {
	victim := 0
	for i := 1; i < len(lu); i++ {
		if lu[i] < lu[victim] {
			victim = i
		}
	}
	return victim
}

// TestVictimWayMatchesLinearScan: the mask-selected victim equals the
// linear first-least scan for 1, 4, 8 (the default) and 16 ways, over
// sets full of ties and empty (-1) ways as well as distinct cycles.
func TestVictimWayMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, ways := range []int{1, 4, 8, 16} {
		lu := make([]int64, ways)
		for trial := 0; trial < 20000; trial++ {
			span := []int64{2, 4, 1 << 40}[trial%3] // dense ties, some, none
			for i := range lu {
				lu[i] = rng.Int63n(span) - 1 // -1 is an empty way
			}
			if got, want := victimWay(lu), firstLeast(lu); got != want {
				t.Fatalf("%d ways %v: victimWay = %d, linear scan = %d", ways, lu, got, want)
			}
		}
	}
}
