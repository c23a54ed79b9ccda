package core

import (
	"bytes"
	"os"
	"testing"
)

// TestWriteRegionTableGolden pins the bytes `tbpoint -dump-regions` writes:
// the Table III rows are the maximal runs of blocks sharing a region ID, so
// a region ID recurs across runs and the IDs may have gaps.
func TestWriteRegionTableGolden(t *testing.T) {
	rt := &RegionTable{Occupancy: 4, RegionOf: []int{0, 0, 0, 2, 2, 0, 0, 5}, NumRegions: 3}
	var buf bytes.Buffer
	if err := WriteRegionTable(&buf, rt); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/region_table.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteRegionTable wrote\n%s\nwant\n%s", buf.Bytes(), want)
	}
}
