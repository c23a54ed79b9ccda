package core

import (
	"tbpoint/internal/cluster"
	"tbpoint/internal/funcsim"
	"tbpoint/internal/stats"
)

// Epoch groups system-occupancy many consecutive thread blocks (Eq. 4):
// blocks with close IDs are likely to run concurrently.
type Epoch struct {
	// Start and End delimit the block-ID range [Start, End).
	Start, End int
	// StallProb is the epoch's average per-block stall probability
	// (Eq. 5's intra-feature value).
	StallProb float64
	// VarFactor is max(CoV(memory requests), CoV(warp instructions)) over
	// the epoch's blocks (Eq. 5), used to detect outlier thread blocks.
	VarFactor float64
}

// BuildEpochs slices a launch profile into epochs of the given system
// occupancy. The final epoch may be short.
func BuildEpochs(lp *funcsim.LaunchProfile, occupancy int) []Epoch {
	if occupancy < 1 {
		occupancy = 1
	}
	n := lp.NumBlocks()
	epochs := make([]Epoch, 0, n/occupancy+1)
	// One scratch buffer per series, reused by every epoch.
	width := min(occupancy, n)
	probs := make([]float64, 0, width)
	xs := make([]float64, 0, width)
	ys := make([]float64, 0, width)
	for start := 0; start < n; start += occupancy {
		end := start + occupancy
		if end > n {
			end = n
		}
		probs, xs, ys = probs[:0], xs[:0], ys[:0]
		for tb := start; tb < end; tb++ {
			b := lp.Block(tb)
			probs = append(probs, b.StallProb())
			xs = append(xs, float64(b.MemRequests))
			ys = append(ys, float64(b.WarpInsts))
		}
		epochs = append(epochs, Epoch{
			Start:     start,
			End:       end,
			StallProb: stats.Mean(probs),
			// Eq. 5: variance_factor = max(CoV(X), CoV(Y)).
			VarFactor: maxf(stats.CoV(xs), stats.CoV(ys)),
		})
	}
	return epochs
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// RegionTable is the homogeneous region table (Table III): for every
// thread block, the ID of the homogeneous region containing it.
//
// Following the paper, "the ID of the cluster [is] used as the region ID":
// separated runs of epochs that share a cluster share a region ID. This is
// what lets homogeneous region sampling amortise one warming period over
// every later occurrence of the same cluster — once a cluster's IPC has
// been sampled, re-entering it fast-forwards immediately.
type RegionTable struct {
	// Occupancy is the epoch size the table was built for; it must match
	// the simulated configuration's system occupancy.
	Occupancy int
	// RegionOf maps thread block ID -> region ID.
	RegionOf []int
	// NumRegions is the number of distinct region (cluster) IDs.
	NumRegions int
	// EpochCluster is the cluster of each epoch after outlier
	// post-processing (diagnostics).
	EpochCluster []int
	// Epochs are the underlying epochs (diagnostics).
	Epochs []Epoch
}

// Regions returns the maximal runs of consecutive blocks sharing a region
// ID, as (start, end, id) triples in block order. A region ID can appear
// in several runs.
func (rt *RegionTable) Regions() []RegionRun {
	var out []RegionRun
	for tb, r := range rt.RegionOf {
		if len(out) > 0 && out[len(out)-1].ID == r {
			out[len(out)-1].End = tb + 1
			continue
		}
		out = append(out, RegionRun{Start: tb, End: tb + 1, ID: r})
	}
	return out
}

// RegionRun is one maximal run of consecutive thread blocks sharing a
// region ID.
type RegionRun struct {
	Start, End int
	ID         int
}

// IdentifyRegions performs homogeneous region identification (§IV-B1):
// epoch vector construction, epoch clustering (hierarchical, threshold
// sigmaIntra on mean-normalised stall probability), outlier post-processing
// (epochs with variation factor above varFactor get their own cluster), and
// homogeneous region construction.
//
// The profile is hardware independent; only the occupancy argument depends
// on the simulated configuration, so re-targeting re-runs only this
// function (§V-C).
func IdentifyRegions(lp *funcsim.LaunchProfile, occupancy int, sigmaIntra, varFactor float64) *RegionTable {
	epochs := BuildEpochs(lp, occupancy)
	rt := &RegionTable{
		Occupancy: occupancy,
		RegionOf:  make([]int, lp.NumBlocks()),
		Epochs:    epochs,
	}
	if len(epochs) == 0 {
		return rt
	}

	// Epoch clustering on the one-dimensional intra-feature vector,
	// normalised by its mean so sigmaIntra is scale free (matching the
	// Eq. 2 normalisation convention).
	points := make([][]float64, len(epochs))
	for i, e := range epochs {
		points[i] = []float64{e.StallProb}
	}
	points = cluster.NormalizeByMean(points)
	assign := cluster.Hierarchical(points).CutThreshold(sigmaIntra)

	// Outlier post-processing: epochs whose variation factor exceeds the
	// threshold are removed from their cluster and assigned their own.
	next := cluster.NumClusters(assign)
	for i, e := range epochs {
		if e.VarFactor > varFactor {
			assign[i] = next
			next++
		}
	}
	rt.EpochCluster = assign

	// Homogeneous region construction: every thread block carries its
	// epoch's cluster ID as its region ID (Table III).
	for i, e := range epochs {
		for tb := e.Start; tb < e.End; tb++ {
			rt.RegionOf[tb] = assign[i]
		}
	}
	rt.NumRegions = cluster.NumClusters(assign)
	return rt
}
