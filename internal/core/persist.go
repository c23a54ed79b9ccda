package core

import (
	"encoding/json"
	"fmt"
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

// ReadRegionTable reconstructs a region table from its Table III rows,
// validating that the rows tile the block range exactly.
func ReadRegionTable(r io.Reader) (*RegionTable, error) {
	var f regionTableFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("core: region table: %w", err)
	}
	if f.Format != regionTableFormat {
		return nil, fmt.Errorf("core: region table: unknown format %q", f.Format)
	}
	if f.NumBlocks < 0 || f.Occupancy < 0 {
		return nil, fmt.Errorf("core: region table: negative sizes")
	}
	rt := &RegionTable{
		Occupancy:  f.Occupancy,
		RegionOf:   make([]int, f.NumBlocks),
		NumRegions: f.NumRegions,
	}
	next := 0
	distinct := map[int]bool{}
	for i, row := range f.Rows {
		if row.Start != next || row.End <= row.Start || row.End > f.NumBlocks {
			return nil, fmt.Errorf("core: region table: row %d [%d,%d) does not tile at %d",
				i, row.Start, row.End, next)
		}
		if row.ID < 0 {
			return nil, fmt.Errorf("core: region table: row %d has negative region ID %d", i, row.ID)
		}
		distinct[row.ID] = true
		for tb := row.Start; tb < row.End; tb++ {
			rt.RegionOf[tb] = row.ID
		}
		next = row.End
	}
	if next != f.NumBlocks {
		return nil, fmt.Errorf("core: region table: rows end at %d of %d blocks", next, f.NumBlocks)
	}
	// NumRegions is documented as the number of distinct region IDs; the
	// outlier post-processing can vacate cluster IDs, so the IDs may have
	// gaps — only the distinct count (not max+1) is checkable. A mismatch
	// mis-sizes every per-region consumer downstream.
	if f.NumRegions != len(distinct) {
		return nil, fmt.Errorf("core: region table: numRegions %d, but rows carry %d distinct IDs",
			f.NumRegions, len(distinct))
	}
	return rt, nil
}
