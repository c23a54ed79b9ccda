package core

import (
	"testing"

	"tbpoint/internal/gpusim"
)

// FuzzReplayOrder drives the reference replay with an arbitrary block order
// and unit list against a six-block, two-region table: it must refuse or
// finish, never panic or index the profile's blocks out of range, and
// whatever it finishes must be a real run — every block dispatched in
// ascending order and retired once, leaving nothing resident.
func FuzzReplayOrder(f *testing.F) {
	const n = 6
	// Occupancy 2: dispatch 0 1, then each retirement dispatches the next;
	// units close with blocks 0, 2 and 4. The first seed finishes.
	valid := []byte{0, 1, ^byte(0), 2, ^byte(1), 3, ^byte(2), 4, ^byte(3), 5, ^byte(4), ^byte(5)}
	f.Add(valid, []byte{0, 2, 4}, uint8(n), uint8(0))
	f.Add(valid, []byte{0, 2}, uint8(n), uint8(0))
	f.Add(valid, []byte{0, 2, 4, 5}, uint8(n), uint8(0))
	f.Add(valid[:11], []byte{0, 2, 4}, uint8(n), uint8(0))
	f.Add(valid, []byte{0, 2, 4}, uint8(n+1), uint8(0))
	f.Add(valid, []byte{0, 2, 4}, uint8(n), uint8(1))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 250, 251, 252, 253, 254, 255}, []byte{0}, uint8(n), uint8(0))
	// Block 1 never retires and a block n is dispatched in its place.
	f.Add([]byte{0, 1, 2, 3, 4, 5, 250, 251, 252, 253, 255, 6}, []byte{0}, uint8(n), uint8(0))
	f.Add([]byte{128, 127, 6, 249, 0, 255, 0, 255, 1, 1, 254, 254}, []byte{9, 200}, uint8(n), uint8(0))
	f.Add([]byte{}, []byte{}, uint8(0), uint8(0))

	f.Fuzz(func(t *testing.T, order, units []byte, simulated, skipped uint8) {
		ref := &gpusim.LaunchResult{SimulatedTBs: int(simulated), SkippedTBs: int(skipped)}
		for _, b := range order {
			ref.TBOrder = append(ref.TBOrder, int32(int8(b)))
		}
		for i, b := range units {
			ref.Units = append(ref.Units, gpusim.UnitStats{
				SpecifiedTB: int(int8(b)), StartCycle: int64(i) * 100, EndCycle: int64(i+1) * 100,
				WarpInsts: 100 + int64(b%3),
			})
		}
		opts := DefaultOptions()
		opts.WarmWindow = 0
		rs := replayReference(tableOf([]int{0, 0, 0, 1, 1, 1}, 2), fakeProfile(n, 100), ref, opts)
		if rs == nil {
			return
		}
		next, live := 0, map[int]bool{}
		for i, e := range ref.TBOrder {
			if e >= 0 {
				if int(e) != next {
					t.Fatalf("finished an order whose entry %d dispatches block %d, not %d", i, e, next)
				}
				live[next] = true
				next++
			} else if !live[int(^e)] {
				t.Fatalf("finished an order whose entry %d retires block %d, which is not running", i, ^e)
			} else {
				delete(live, int(^e))
			}
		}
		if next != n || len(live) != 0 || rs.residentRegions != 0 {
			t.Fatalf("finished with %d of %d blocks dispatched, %d running, %d regions resident", next, n, len(live), rs.residentRegions)
		}
	})
}
