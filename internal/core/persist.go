package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"tbpoint/internal/durable"
	"tbpoint/internal/funcsim"
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

// profileFile is the on-disk form of the one-time functional profile. Only
// the profiled counters are stored — the launches themselves are rebuilt
// from the workload definition (they are needed to simulate anyway), with
// one counter row per thread block.
type profileFile struct {
	Format   string              `json:"format"`
	App      string              `json:"app"`
	Launches []launchProfileFile `json:"launches"`
}

type launchProfileFile struct {
	Blocks      []funcsim.TBProfile `json:"blocks"`
	BlockCounts []int64             `json:"blockCounts"`
}

const profileFormat = "tbpoint-profile-v1"

// WriteProfiles serialises an application's one-time profile. appName is
// recorded so a mismatched reload is detectable.
func WriteProfiles(w io.Writer, appName string, profiles []*funcsim.LaunchProfile) error {
	f := profileFile{Format: profileFormat, App: appName}
	for _, lp := range profiles {
		rows := make([]funcsim.TBProfile, lp.NumBlocks())
		for tb := range rows {
			rows[tb] = lp.Block(tb)
		}
		f.Launches = append(f.Launches, launchProfileFile{Blocks: rows, BlockCounts: lp.BlockCounts})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// profileKind is the durable-envelope kind of saved profile files.
const profileKind = "profile"

// WriteProfilesFile persists a one-time profile to path atomically inside
// the durable envelope: a crash mid-save leaves any previous profile
// intact, and later damage is detected on load rather than half parsed.
func WriteProfilesFile(path, appName string, profiles []*funcsim.LaunchProfile) error {
	var buf bytes.Buffer
	if err := WriteProfiles(&buf, appName, profiles); err != nil {
		return err
	}
	return durable.WriteEnvelopeFile(path, profileKind, buf.Bytes())
}

// ReadProfilesFile loads a profile saved by WriteProfilesFile, verifying
// the envelope first: a truncated file surfaces as durable.ErrTruncated
// and a byte-flipped one as durable.ErrCorrupt, instead of a JSON parse
// error deep in the payload (or, worse, silently wrong counters).
func ReadProfilesFile(path, appName string) ([]*funcsim.LaunchProfile, error) {
	payload, err := durable.ReadEnvelopeFile(path, profileKind)
	if err != nil {
		return nil, err
	}
	return ReadProfiles(bytes.NewReader(payload), appName)
}

// ReadProfiles loads a one-time profile, checking the application name.
func ReadProfiles(r io.Reader, appName string) ([]*funcsim.LaunchProfile, error) {
	var f profileFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("core: profile: %w", err)
	}
	if f.Format != profileFormat {
		return nil, fmt.Errorf("core: profile: unknown format %q", f.Format)
	}
	if appName != "" && f.App != appName {
		return nil, fmt.Errorf("core: profile: recorded for app %q, want %q", f.App, appName)
	}
	out := make([]*funcsim.LaunchProfile, len(f.Launches))
	for i, lf := range f.Launches {
		// Profile counters are counts; a corrupt file with negative values
		// would flow through unchecked into negative SkippedInsts and
		// nonsense PredictedCycles in SampleLaunch.
		for b, p := range lf.Blocks {
			if p.WarpInsts < 0 || p.ThreadInsts < 0 || p.MemRequests < 0 {
				return nil, fmt.Errorf("core: profile: launch %d block %d has negative counters %+v",
					i, b, p)
			}
		}
		for b, c := range lf.BlockCounts {
			if c < 0 {
				return nil, fmt.Errorf("core: profile: launch %d basic block %d has negative count %d",
					i, b, c)
			}
		}
		out[i] = internProfile(lf.Blocks, lf.BlockCounts)
	}
	return out, nil
}

// internProfile builds a launch profile from per-block counter rows, storing
// each distinct row (all three counters equal) once, in first-seen order.
func internProfile(rows []funcsim.TBProfile, blockCounts []int64) *funcsim.LaunchProfile {
	lp := &funcsim.LaunchProfile{ShapeOf: make([]uint32, len(rows)), BlockCounts: blockCounts}
	index := map[funcsim.TBProfile]uint32{}
	for tb, p := range rows {
		s, ok := index[p]
		if !ok {
			s = uint32(len(lp.Shapes))
			index[p] = s
			lp.Shapes = append(lp.Shapes, p)
		}
		lp.ShapeOf[tb] = s
	}
	return lp
}
