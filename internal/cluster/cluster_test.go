package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"tbpoint/internal/stats"
)

// threeBlobs returns three well-separated 2-D blobs of the given sizes.
func threeBlobs(n1, n2, n3 int, seed uint64) ([][]float64, []int) {
	rng := stats.NewRNG(seed)
	var pts [][]float64
	var truth []int
	add := func(cx, cy float64, n, label int) {
		for i := 0; i < n; i++ {
			pts = append(pts, []float64{cx + rng.Gaussian(0, 0.05), cy + rng.Gaussian(0, 0.05)})
			truth = append(truth, label)
		}
	}
	add(0, 0, n1, 0)
	add(5, 5, n2, 1)
	add(-5, 5, n3, 2)
	return pts, truth
}

func agreesWithTruth(assign, truth []int) bool {
	// Same partition iff the assignment is a relabelling of truth.
	fwd := map[int]int{}
	bwd := map[int]int{}
	for i := range assign {
		if v, ok := fwd[truth[i]]; ok && v != assign[i] {
			return false
		}
		if v, ok := bwd[assign[i]]; ok && v != truth[i] {
			return false
		}
		fwd[truth[i]] = assign[i]
		bwd[assign[i]] = truth[i]
	}
	return true
}

func TestHierarchicalSeparatesBlobs(t *testing.T) {
	pts, truth := threeBlobs(10, 15, 7, 1)
	d := Hierarchical(pts)
	assign := d.CutThreshold(1.0)
	if got := NumClusters(assign); got != 3 {
		t.Fatalf("NumClusters = %d, want 3", got)
	}
	if !agreesWithTruth(assign, truth) {
		t.Error("clustering does not match ground truth")
	}
}

func TestHierarchicalThresholdSemantics(t *testing.T) {
	pts, _ := threeBlobs(8, 8, 8, 2)
	d := Hierarchical(pts)
	for _, sigma := range []float64{0.05, 0.3, 1.0, 3.0, 100.0} {
		assign := d.CutThreshold(sigma)
		if got := MaxIntraDistance(pts, assign); got > sigma {
			t.Errorf("sigma %v: max intra-cluster distance %v exceeds threshold", sigma, got)
		}
	}
	// A huge threshold merges everything.
	if got := NumClusters(d.CutThreshold(1e9)); got != 1 {
		t.Errorf("huge threshold: %d clusters, want 1", got)
	}
	// A zero threshold separates all distinct points.
	if got := NumClusters(d.CutThreshold(0)); got != len(pts) {
		t.Errorf("zero threshold: %d clusters, want %d", got, len(pts))
	}
}

func TestHierarchicalHigherThresholdFewerClusters(t *testing.T) {
	pts, _ := threeBlobs(10, 10, 10, 3)
	d := Hierarchical(pts)
	prev := math.MaxInt
	for _, sigma := range []float64{0, 0.1, 0.5, 1, 5, 20} {
		n := NumClusters(d.CutThreshold(sigma))
		if n > prev {
			t.Errorf("sigma %v: clusters increased from %d to %d", sigma, prev, n)
		}
		prev = n
	}
}

func TestHierarchicalEdgeCases(t *testing.T) {
	if d := Hierarchical(nil); len(d.CutThreshold(1)) != 0 {
		t.Error("empty input should give empty assignment")
	}
	one := [][]float64{{1, 2}}
	if got := Hierarchical(one).CutThreshold(1); len(got) != 1 || got[0] != 0 {
		t.Errorf("single point assignment = %v", got)
	}
	same := [][]float64{{1}, {1}, {1}}
	assign := Hierarchical(same).CutThreshold(0)
	if NumClusters(assign) != 1 {
		t.Error("identical points should merge at threshold 0")
	}
}

func TestRepresentatives(t *testing.T) {
	pts := [][]float64{{0}, {1}, {2}, {10}, {11}}
	assign := []int{0, 0, 0, 1, 1}
	reps := Representatives(pts, assign)
	if reps[0] != 1 { // {1} is closest to centroid 1.0
		t.Errorf("rep of cluster 0 = %d, want 1", reps[0])
	}
	if reps[1] != 3 && reps[1] != 4 {
		t.Errorf("rep of cluster 1 = %d", reps[1])
	}
}

func TestCentroid(t *testing.T) {
	pts := [][]float64{{0, 0}, {2, 4}, {4, 8}}
	c := Centroid(pts, []int{0, 1, 2})
	if c[0] != 2 || c[1] != 4 {
		t.Errorf("Centroid = %v, want [2 4]", c)
	}
	if Centroid(pts, nil) != nil {
		t.Error("empty index list should give nil centroid")
	}
}

func TestNormalizeByMean(t *testing.T) {
	pts := [][]float64{{2, 0}, {4, 0}}
	out := NormalizeByMean(pts)
	if out[0][0] != 2.0/3.0 || out[1][0] != 4.0/3.0 {
		t.Errorf("normalised col 0 = %v,%v", out[0][0], out[1][0])
	}
	// Zero-mean column left unscaled.
	if out[0][1] != 0 || out[1][1] != 0 {
		t.Error("zero column mangled")
	}
	if NormalizeByMean(nil) != nil {
		t.Error("nil input should give nil")
	}
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	pts, truth := threeBlobs(12, 9, 14, 4)
	r := KMeans(pts, 3, 7)
	if r.K != 3 {
		t.Fatalf("K = %d, want 3", r.K)
	}
	if !agreesWithTruth(r.Assign, truth) {
		t.Error("k-means does not match ground truth")
	}
	if r.SSE <= 0 {
		t.Error("SSE should be positive for noisy blobs")
	}
}

func TestKMeansDeterministic(t *testing.T) {
	pts, _ := threeBlobs(10, 10, 10, 5)
	a := KMeans(pts, 3, 42)
	b := KMeans(pts, 3, 42)
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same-seed k-means diverged")
		}
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	if r := KMeans(nil, 3, 1); r.K != 0 {
		t.Error("empty input should give K=0")
	}
	pts := [][]float64{{1}, {1}, {1}}
	r := KMeans(pts, 5, 1)
	if r.K != 1 {
		t.Errorf("identical points: K = %d, want 1", r.K)
	}
	if r.SSE != 0 {
		t.Errorf("identical points: SSE = %v, want 0", r.SSE)
	}
	// k > n clamps.
	pts2 := [][]float64{{0}, {100}}
	r2 := KMeans(pts2, 10, 1)
	if r2.K != 2 {
		t.Errorf("k>n: K = %d, want 2", r2.K)
	}
}

func TestKMeansAssignmentsValid(t *testing.T) {
	pts, _ := threeBlobs(20, 20, 20, 6)
	r := KMeans(pts, 4, 3)
	if len(r.Assign) != len(pts) {
		t.Fatal("assignment length mismatch")
	}
	for _, a := range r.Assign {
		if a < 0 || a >= r.K {
			t.Fatalf("assignment %d out of range [0,%d)", a, r.K)
		}
	}
	if len(r.Centroids) != r.K {
		t.Error("centroid count != K")
	}
}

func TestBICPrefersTrueK(t *testing.T) {
	pts, _ := threeBlobs(30, 30, 30, 7)
	best, bestK := math.Inf(-1), 0
	for k := 1; k <= 6; k++ {
		r := KMeans(pts, k, 11)
		if s := BIC(pts, r); s > best {
			best, bestK = s, k
		}
	}
	if bestK != 3 {
		t.Errorf("BIC chose k=%d, want 3", bestK)
	}
}

func TestKMeansBIC(t *testing.T) {
	pts, truth := threeBlobs(25, 25, 25, 8)
	r := KMeansBIC(pts, 8, 0.9, 13)
	if r.K != 3 {
		t.Fatalf("KMeansBIC chose K=%d, want 3", r.K)
	}
	if !agreesWithTruth(r.Assign, truth) {
		t.Error("KMeansBIC clustering does not match ground truth")
	}
}

func TestKMeansBICEdge(t *testing.T) {
	pts := [][]float64{{0}, {0.001}}
	r := KMeansBIC(pts, 5, 0.9, 1)
	if r.K < 1 || r.K > 2 {
		t.Errorf("K = %d", r.K)
	}
}

func TestEuclidean(t *testing.T) {
	if d := Euclidean([]float64{0, 3}, []float64{4, 0}); d != 5 {
		t.Errorf("Euclidean = %v, want 5", d)
	}
	if d := Euclidean([]float64{1}, []float64{1}); d != 0 {
		t.Errorf("Euclidean equal points = %v", d)
	}
}

// Property: every hierarchical cut yields a valid dense assignment, and the
// cluster count never exceeds the point count.
func TestCutAssignmentValidProperty(t *testing.T) {
	f := func(raw []uint8, sigma8 uint8) bool {
		if len(raw) == 0 || len(raw) > 60 {
			return true
		}
		pts := make([][]float64, len(raw))
		for i, v := range raw {
			pts[i] = []float64{float64(v)}
		}
		sigma := float64(sigma8)
		assign := Hierarchical(pts).CutThreshold(sigma)
		if len(assign) != len(pts) {
			return false
		}
		n := NumClusters(assign)
		if n < 1 || n > len(pts) {
			return false
		}
		for _, a := range assign {
			if a < 0 || a >= n {
				return false
			}
		}
		return MaxIntraDistance(pts, assign) <= sigma
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: 1-D points within distance sigma of each other chain into one
// cluster only if their full span is within sigma (complete linkage).
func TestCompleteLinkageProperty(t *testing.T) {
	pts := [][]float64{{0}, {0.6}, {1.2}}
	assign := Hierarchical(pts).CutThreshold(1.0)
	// Span 1.2 > 1.0, so all three cannot be one cluster.
	if NumClusters(assign) == 1 {
		t.Error("complete linkage should not chain 0..1.2 under sigma=1")
	}
}

// naiveCompleteLinkage is a reference O(n^3) implementation: repeatedly
// merge the pair of clusters with the smallest complete-linkage distance
// while that distance is <= sigma.
func naiveCompleteLinkage(points [][]float64, sigma float64) []int {
	n := len(points)
	clusters := make([][]int, n)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	linkage := func(a, b []int) float64 {
		worst := 0.0
		for _, i := range a {
			for _, j := range b {
				if d := Euclidean(points[i], points[j]); d > worst {
					worst = d
				}
			}
		}
		return worst
	}
	for {
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if d := linkage(clusters[i], clusters[j]); d < best {
					bi, bj, best = i, j, d
				}
			}
		}
		if bi < 0 || best > sigma {
			break
		}
		clusters[bi] = append(clusters[bi], clusters[bj]...)
		clusters = append(clusters[:bj], clusters[bj+1:]...)
	}
	assign := make([]int, n)
	for cid, members := range clusters {
		for _, i := range members {
			assign[i] = cid
		}
	}
	return assign
}

func samePartition(a, b []int) bool {
	fwd := map[int]int{}
	bwd := map[int]int{}
	for i := range a {
		if v, ok := fwd[a[i]]; ok && v != b[i] {
			return false
		}
		if v, ok := bwd[b[i]]; ok && v != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		bwd[b[i]] = a[i]
	}
	return true
}

// Property: the NN-chain implementation produces the same partition as the
// naive O(n^3) reference for random small inputs and thresholds.
func TestNNChainMatchesNaiveProperty(t *testing.T) {
	f := func(raw []uint8, sig8 uint8) bool {
		if len(raw) == 0 || len(raw) > 24 {
			return true
		}
		pts := make([][]float64, len(raw))
		for i, v := range raw {
			pts[i] = []float64{float64(v) / 8}
		}
		sigma := float64(sig8) / 16
		got := Hierarchical(pts).CutThreshold(sigma)
		want := naiveCompleteLinkage(pts, sigma)
		// Both must yield valid partitions with the same max-diameter
		// property; the exact partitions can differ on ties, so compare
		// diameters and cluster counts when tie-free, and always compare
		// the sigma bound.
		if MaxIntraDistance(pts, got) > sigma {
			return false
		}
		if MaxIntraDistance(pts, want) > sigma {
			return false
		}
		return samePartition(got, want) || NumClusters(got) == NumClusters(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: on scalar inputs the interval path Hierarchical selects and the
// generic matrix path build the same dendrogram — every merge (A, B, Height)
// bit for bit — and so the same cut at any threshold. The inputs are the
// shapes that stress the tie-break: duplicates, evenly spaced values,
// all-equal vectors, values around 1 (mean-normalised stall probabilities),
// a wide dynamic range, and gaps small enough that their square underflows.
func TestScalarPathMatchesMatrixPath(t *testing.T) {
	rng := stats.NewRNG(7)
	gens := []struct {
		name string
		gen  func(i, n int) float64
	}{
		{"uniform", func(i, n int) float64 { return rng.Float64() }},
		{"duplicates", func(i, n int) float64 { return float64(rng.Intn(5)) / 4 }},
		{"even", func(i, n int) float64 { return float64(i) * 0.1 }},
		{"evenShuffled", func(i, n int) float64 { return float64((i*7)%n) * 0.125 }},
		{"allEqual", func(i, n int) float64 { return 0.75 }},
		{"nearOne", func(i, n int) float64 { return 1 + rng.Gaussian(0, 0.05) }},
		{"twoPhases", func(i, n int) float64 { return float64(i*2/n) + rng.Gaussian(0, 1e-3) }},
		{"wideRange", func(i, n int) float64 { return math.Exp(rng.Gaussian(0, 20)) }},
		{"underflow", func(i, n int) float64 { return float64(rng.Intn(4)) * 1e-170 }},
		{"signedZero", func(i, n int) float64 { return math.Copysign(0, float64(i%2)-0.5) }},
	}
	for _, g := range gens {
		name := g.name
		for _, n := range []int{2, 3, 7, 32, 150} {
			pts := make([][]float64, n)
			for i := range pts {
				pts[i] = []float64{g.gen(i, n)}
			}
			got := Hierarchical(pts)
			want := nnChain(n, newMatrixLinkage(pts))
			if got.N != want.N || len(got.Merges) != len(want.Merges) {
				t.Fatalf("%s n=%d: %d merges over %d points, matrix path %d over %d",
					name, n, len(got.Merges), got.N, len(want.Merges), want.N)
			}
			for i, m := range got.Merges {
				w := want.Merges[i]
				if m.A != w.A || m.B != w.B || math.Float64bits(m.Height) != math.Float64bits(w.Height) {
					t.Fatalf("%s n=%d merge %d: %+v, matrix path %+v", name, n, i, m, w)
				}
			}
			for _, sigma := range []float64{0, 1e-3, 0.1, 0.2, 1, math.Inf(1)} {
				a, w := got.CutThreshold(sigma), want.CutThreshold(sigma)
				for i := range a {
					if a[i] != w[i] {
						t.Fatalf("%s n=%d sigma=%v: point %d in cluster %d, matrix path %d",
							name, n, sigma, i, a[i], w[i])
					}
				}
			}
		}
	}
}
