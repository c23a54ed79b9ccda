package core

import (
	"encoding/json"
	"io"
)

// regionTableFile is the on-disk form of the homogeneous region table —
// the paper's Table III layout: one row per maximal run of thread blocks,
// with the region (cluster) ID and the [start, end) block range.
type regionTableFile struct {
	Format     string      `json:"format"`
	Occupancy  int         `json:"occupancy"`
	NumBlocks  int         `json:"numBlocks"`
	NumRegions int         `json:"numRegions"`
	Rows       []RegionRun `json:"rows"`
}

const regionTableFormat = "tbpoint-region-table-v1"

// WriteRegionTable serialises a region table in the Table III row format
// (region ID, start thread block ID, end thread block ID).
func WriteRegionTable(w io.Writer, rt *RegionTable) error {
	f := regionTableFile{
		Format:     regionTableFormat,
		Occupancy:  rt.Occupancy,
		NumBlocks:  len(rt.RegionOf),
		NumRegions: rt.NumRegions,
		Rows:       rt.Regions(),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}
