package core

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"tbpoint/internal/gpusim"
)

// FuzzReadRegionTable checks the Table III loader never panics and that
// everything it accepts satisfies the tiling invariant.
func FuzzReadRegionTable(f *testing.F) {
	f.Add(`{"format":"tbpoint-region-table-v1","occupancy":4,"numBlocks":6,
	        "numRegions":2,"rows":[{"Start":0,"End":3,"ID":0},{"Start":3,"End":6,"ID":1}]}`)
	f.Add(`{"format":"tbpoint-region-table-v1","occupancy":0,"numBlocks":0,"numRegions":0,"rows":[]}`)
	f.Add(`{}`)
	f.Add(`not json`)
	// Corrupt region-ID shapes: negative IDs, and headers whose numRegions
	// disagrees with the rows in both directions.
	f.Add(`{"format":"tbpoint-region-table-v1","occupancy":2,"numBlocks":4,
	        "numRegions":2,"rows":[{"Start":0,"End":2,"ID":-1},{"Start":2,"End":4,"ID":0}]}`)
	f.Add(`{"format":"tbpoint-region-table-v1","occupancy":2,"numBlocks":4,
	        "numRegions":7,"rows":[{"Start":0,"End":2,"ID":0},{"Start":2,"End":4,"ID":1}]}`)
	f.Add(`{"format":"tbpoint-region-table-v1","occupancy":2,"numBlocks":4,
	        "numRegions":1,"rows":[{"Start":0,"End":2,"ID":0},{"Start":2,"End":4,"ID":3}]}`)

	f.Fuzz(func(t *testing.T, data string) {
		rt, err := ReadRegionTable(strings.NewReader(data))
		if err != nil {
			return
		}
		// Accepted tables must tile [0, numBlocks) exactly; Regions() on
		// them must reproduce contiguous runs with valid IDs, and the header
		// region count must match the rows.
		next := 0
		distinct := map[int]bool{}
		for _, run := range rt.Regions() {
			if run.Start != next || run.End <= run.Start {
				t.Fatalf("accepted table has non-tiling run %+v", run)
			}
			if run.ID < 0 {
				t.Fatalf("accepted table has negative region ID %+v", run)
			}
			distinct[run.ID] = true
			next = run.End
		}
		if next != len(rt.RegionOf) {
			t.Fatalf("runs cover %d of %d blocks", next, len(rt.RegionOf))
		}
		if rt.NumRegions != len(distinct) {
			t.Fatalf("accepted table claims %d regions but carries %d", rt.NumRegions, len(distinct))
		}
	})
}

// FuzzReadProfiles checks the profile loader never panics, that every
// accepted profile carries only non-negative counters — the invariant
// SampleLaunch's skipped-instruction accounting relies on — and that its
// interning is exact: every block indexes a stored row, and writing the
// profile back out gives the file's per-block rows.
func FuzzReadProfiles(f *testing.F) {
	f.Add(`{"format":"tbpoint-profile-v1","app":"x","launches":[
	        {"blocks":[{"ThreadInsts":64,"WarpInsts":2,"MemRequests":1}],"blockCounts":[2]}]}`)
	f.Add(`{"format":"tbpoint-profile-v1","app":"x","launches":[]}`)
	f.Add(`{"format":"tbpoint-profile-v1","app":"x","launches":[
	        {"blocks":[{"ThreadInsts":64,"WarpInsts":-2,"MemRequests":1}],"blockCounts":[2]}]}`)
	f.Add(`{"format":"tbpoint-profile-v1","app":"x","launches":[
	        {"blocks":[{"ThreadInsts":64,"WarpInsts":2,"MemRequests":1}],"blockCounts":[-9]}]}`)
	f.Add(`{"format":"tbpoint-profile-v1","app":"x","launches":[
	        {"blocks":[{"ThreadInsts":64,"WarpInsts":2,"MemRequests":1},{"ThreadInsts":64,"WarpInsts":2,"MemRequests":0},
	                   {"ThreadInsts":64,"WarpInsts":2,"MemRequests":1}],"blockCounts":[2,4]},
	        {"blocks":[],"blockCounts":[]}]}`)
	f.Add(`{}`)
	f.Add(`not json`)

	f.Fuzz(func(t *testing.T, data string) {
		profiles, err := ReadProfiles(strings.NewReader(data), "")
		if err != nil {
			return
		}
		var in, out profileFile
		var buf bytes.Buffer
		if err := WriteProfiles(&buf, "", profiles); err != nil {
			t.Fatalf("accepted profile does not write: %v", err)
		}
		if json.NewDecoder(strings.NewReader(data)).Decode(&in) != nil || json.Unmarshal(buf.Bytes(), &out) != nil ||
			len(in.Launches) != len(out.Launches) {
			t.Fatalf("accepted profile re-encodes to %d launches, file has %d", len(out.Launches), len(in.Launches))
		}
		for li, lp := range profiles {
			for tb, s := range lp.ShapeOf {
				if int(s) >= len(lp.Shapes) {
					t.Fatalf("accepted profile launch %d block %d indexes row %d of %d", li, tb, s, len(lp.Shapes))
				}
			}
			if !slices.Equal(out.Launches[li].Blocks, in.Launches[li].Blocks) {
				t.Fatalf("accepted profile launch %d re-encodes to rows %v, file has %v", li, out.Launches[li].Blocks, in.Launches[li].Blocks)
			}
			for s, p := range lp.Shapes {
				if p.WarpInsts < 0 || p.ThreadInsts < 0 || p.MemRequests < 0 {
					t.Fatalf("accepted profile launch %d row %d has negative counters %+v", li, s, p)
				}
			}
			for b, c := range lp.BlockCounts {
				if c < 0 {
					t.Fatalf("accepted profile launch %d basic block %d has negative count %d", li, b, c)
				}
			}
			// The derived quantities the sampler consumes must be finite and
			// non-negative on anything the loader accepts.
			if lp.TotalWarpInsts() < 0 || lp.TotalThreadInsts() < 0 || lp.TotalMemRequests() < 0 {
				t.Fatalf("accepted profile launch %d has negative totals", li)
			}
		}
	})
}

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
