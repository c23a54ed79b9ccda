package core

import (
	"bytes"
	"strings"
	"testing"

	"tbpoint/internal/funcsim"
)

func TestRegionTableRoundTrip(t *testing.T) {
	k := phasedKernel()
	l := launchWithPhases(k, 120, [][2]int{{12, 1}, {2, 8}})
	lp := funcsim.ProfileLaunch(l)
	rt := IdentifyRegions(lp, 12, 0.2, 0.3)

	var buf bytes.Buffer
	if err := WriteRegionTable(&buf, rt); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := ReadRegionTable(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if back.Occupancy != rt.Occupancy || back.NumRegions != rt.NumRegions {
		t.Errorf("header mismatch: %+v vs %+v", back, rt)
	}
	for tb := range rt.RegionOf {
		if back.RegionOf[tb] != rt.RegionOf[tb] {
			t.Fatalf("RegionOf[%d] = %d, want %d", tb, back.RegionOf[tb], rt.RegionOf[tb])
		}
	}
}

func TestRegionTableRejectsBadInput(t *testing.T) {
	cases := []string{
		"{garbage",
		`{"format":"wrong","occupancy":1,"numBlocks":0,"numRegions":0,"rows":[]}`,
		// Rows with a gap.
		`{"format":"tbpoint-region-table-v1","occupancy":1,"numBlocks":4,"numRegions":2,
		  "rows":[{"Start":0,"End":1,"ID":0},{"Start":2,"End":4,"ID":1}]}`,
		// Rows ending short.
		`{"format":"tbpoint-region-table-v1","occupancy":1,"numBlocks":4,"numRegions":1,
		  "rows":[{"Start":0,"End":2,"ID":0}]}`,
		// Out-of-range row.
		`{"format":"tbpoint-region-table-v1","occupancy":1,"numBlocks":2,"numRegions":1,
		  "rows":[{"Start":0,"End":5,"ID":0}]}`,
	}
	for i, c := range cases {
		if _, err := ReadRegionTable(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
