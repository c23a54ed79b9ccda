// Package cluster implements the clustering substrate TBPoint and the
// SimPoint baseline build on: agglomerative hierarchical clustering with
// complete linkage and a distance-threshold cut (used by inter-launch and
// intra-launch sampling, §III and §IV-B1), and k-means with k-means++
// seeding plus the Bayesian information criterion (used by the
// Ideal-Simpoint baseline, §V-A).
package cluster

import "math"

// Merge is one agglomeration step of a dendrogram. Node IDs 0..n-1 are the
// input points (leaves); merge i creates node n+i joining nodes A and B at
// the given linkage height.
type Merge struct {
	A, B   int
	Height float64
}

// Dendrogram is the result of hierarchical clustering over n points.
type Dendrogram struct {
	N      int
	Merges []Merge
}

// Euclidean returns the Euclidean distance between two equal-length vectors.
func Euclidean(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Hierarchical performs agglomerative clustering with complete linkage over
// the given points using the nearest-neighbour-chain algorithm. Complete
// linkage is chosen because the paper defines the distance threshold σ as
// "the maximum distance between any two points in a cluster".
//
// The chain takes O(n²) time. Memory depends on the input's dimension alone:
// one-dimensional points (the epoch vectors of region identification) are
// clustered from per-cluster intervals in O(n) memory, any other input
// (the inter-launch feature vectors) from an n×n distance matrix. Both
// produce the same dendrogram for the same one-dimensional input.
func Hierarchical(points [][]float64) *Dendrogram {
	n := len(points)
	if n <= 1 {
		return &Dendrogram{N: n}
	}
	if xs, ok := scalars(points); ok {
		return nnChain(n, newIntervalLinkage(xs))
	}
	return nnChain(n, newMatrixLinkage(points))
}

// scalars returns the coordinates of points when every point is
// one-dimensional.
func scalars(points [][]float64) ([]float64, bool) {
	xs := make([]float64, len(points))
	for i, p := range points {
		if len(p) != 1 {
			return nil, false
		}
		xs[i] = p[0]
	}
	return xs, true
}

// linkage holds the complete-linkage distances between the live clusters of
// an agglomeration. Clusters live in slots 0..n-1; a merge keeps the lower
// slot.
type linkage interface {
	// nearest returns the live slot closest to top and its distance,
	// scanning slots in ascending order and keeping the first on ties.
	nearest(top int, alive []bool) (slot int, dist float64)
	// merge folds slot j into slot i (i < j, both live).
	merge(i, j int, alive []bool)
}

// nnChain runs the nearest-neighbour chain over n >= 2 leaves.
func nnChain(n int, lk linkage) *Dendrogram {
	d := &Dendrogram{N: n, Merges: make([]Merge, 0, n-1)}
	// Cluster ids are 0..n-1 for leaves and n+i for merge i.
	active := make([]int, n) // slot -> cluster id
	alive := make([]bool, n)
	for i := range active {
		active[i] = i
		alive[i] = true
	}
	nAlive := n

	chain := make([]int, 0, n)
	for nAlive > 1 {
		if len(chain) == 0 {
			for s := 0; s < n; s++ {
				if alive[s] {
					chain = append(chain, s)
					break
				}
			}
		}
		top := chain[len(chain)-1]
		best, bestD := lk.nearest(top, alive)
		// Reciprocal nearest neighbours? (the previous chain element)
		if len(chain) >= 2 && chain[len(chain)-2] == best {
			// Merge slots top and best into slot min(top,best).
			chain = chain[:len(chain)-2]
			i, j := top, best
			if j < i {
				i, j = j, i
			}
			d.Merges = append(d.Merges, Merge{A: active[i], B: active[j], Height: bestD})
			lk.merge(i, j, alive)
			alive[j] = false
			active[i] = n + len(d.Merges) - 1
			nAlive--
		} else {
			chain = append(chain, best)
		}
	}
	return d
}

// matrixLinkage keeps a dense distance matrix over slots, updated in place
// with the Lance-Williams rule for complete linkage:
// D(k, i∪j) = max(D(k,i), D(k,j)).
type matrixLinkage struct {
	dist [][]float64
}

func newMatrixLinkage(points [][]float64) *matrixLinkage {
	n := len(points)
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dv := Euclidean(points[i], points[j])
			dist[i][j] = dv
			dist[j][i] = dv
		}
	}
	return &matrixLinkage{dist: dist}
}

func (m *matrixLinkage) nearest(top int, alive []bool) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for s, dv := range m.dist[top] {
		if !alive[s] || s == top {
			continue
		}
		if dv < bestD {
			best, bestD = s, dv
		}
	}
	return best, bestD
}

func (m *matrixLinkage) merge(i, j int, alive []bool) {
	for s := range m.dist {
		if !alive[s] || s == i || s == j {
			continue
		}
		v := math.Max(m.dist[s][i], m.dist[s][j])
		m.dist[s][i] = v
		m.dist[i][s] = v
	}
}

// intervalLinkage is complete linkage over scalars without the matrix: the
// largest pairwise distance between two clusters of reals is the larger of
// their two end-to-end gaps, so each slot carries only its cluster's [lo, hi].
// Rounding is monotone, so evaluating Euclidean's expression on the wider
// gap gives bit for bit the maximum of Euclidean over all pairs, which is
// what matrixLinkage holds.
type intervalLinkage struct {
	lo, hi []float64
}

func newIntervalLinkage(xs []float64) *intervalLinkage {
	return &intervalLinkage{lo: xs, hi: append([]float64(nil), xs...)}
}

func (v *intervalLinkage) nearest(top int, alive []bool) (int, float64) {
	lo, hi := v.lo[top], v.hi[top]
	best, bestD := -1, math.Inf(1)
	for s, ok := range alive {
		if !ok || s == top {
			continue
		}
		gap := math.Abs(hi - v.lo[s])
		if g := math.Abs(v.hi[s] - lo); g > gap {
			gap = g
		}
		if dv := math.Sqrt(gap * gap); dv < bestD {
			best, bestD = s, dv
		}
	}
	return best, bestD
}

func (v *intervalLinkage) merge(i, j int, _ []bool) {
	if v.lo[j] < v.lo[i] {
		v.lo[i] = v.lo[j]
	}
	if v.hi[j] > v.hi[i] {
		v.hi[i] = v.hi[j]
	}
}

// CutThreshold cuts the dendrogram at height sigma and returns the cluster
// assignment of each input point, with cluster IDs densely renumbered from
// zero in order of first appearance. Points end up in the same cluster iff
// their complete-linkage (maximum pairwise) distance is at most sigma.
func (d *Dendrogram) CutThreshold(sigma float64) []int {
	parent := make([]int, d.N+len(d.Merges))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for mi, m := range d.Merges {
		if m.Height > sigma {
			continue
		}
		node := d.N + mi
		ra, rb := find(m.A), find(m.B)
		parent[ra] = node
		parent[rb] = node
	}
	assign := make([]int, d.N)
	next := 0
	ids := map[int]int{}
	for i := 0; i < d.N; i++ {
		r := find(i)
		id, ok := ids[r]
		if !ok {
			id = next
			next++
			ids[r] = id
		}
		assign[i] = id
	}
	return assign
}

// NumClusters returns the number of distinct assignments.
func NumClusters(assign []int) int {
	seen := map[int]bool{}
	for _, a := range assign {
		seen[a] = true
	}
	return len(seen)
}

// Members returns, for each cluster ID, the indices assigned to it.
func Members(assign []int) map[int][]int {
	m := map[int][]int{}
	for i, a := range assign {
		m[a] = append(m[a], i)
	}
	return m
}

// Centroid returns the mean of the given points (indices into points).
func Centroid(points [][]float64, idxs []int) []float64 {
	if len(idxs) == 0 || len(points) == 0 {
		return nil
	}
	dim := len(points[idxs[0]])
	c := make([]float64, dim)
	for _, i := range idxs {
		for d := 0; d < dim; d++ {
			c[d] += points[i][d]
		}
	}
	for d := range c {
		c[d] /= float64(len(idxs))
	}
	return c
}

// Representatives returns, for each cluster, the member index whose point
// lies closest to the cluster centroid — the paper's simulation-point
// selection rule ("the kernel launch with the inter-feature vector closest
// to the center of the cluster", §III). Ties break toward the lowest index,
// which keeps selection deterministic.
func Representatives(points [][]float64, assign []int) map[int]int {
	reps := map[int]int{}
	for cid, idxs := range Members(assign) {
		c := Centroid(points, idxs)
		best, bestD := -1, math.Inf(1)
		for _, i := range idxs {
			if dv := Euclidean(points[i], c); dv < bestD || (dv == bestD && i < best) {
				best, bestD = i, dv
			}
		}
		reps[cid] = best
	}
	return reps
}

// MaxIntraDistance returns the maximum pairwise distance within any cluster,
// the quantity the threshold σ bounds. Used by tests and diagnostics.
func MaxIntraDistance(points [][]float64, assign []int) float64 {
	var worst float64
	for _, idxs := range Members(assign) {
		for a := 0; a < len(idxs); a++ {
			for b := a + 1; b < len(idxs); b++ {
				if dv := Euclidean(points[idxs[a]], points[idxs[b]]); dv > worst {
					worst = dv
				}
			}
		}
	}
	return worst
}

// NormalizeByMean divides each column by its column mean (columns with zero
// mean are left unscaled). This is the Eq. 2 normalisation: "each of which
// is normalized with its average value across all kernel launches".
func NormalizeByMean(points [][]float64) [][]float64 {
	if len(points) == 0 {
		return nil
	}
	dim := len(points[0])
	means := make([]float64, dim)
	for _, p := range points {
		for d := 0; d < dim; d++ {
			means[d] += p[d]
		}
	}
	for d := range means {
		means[d] /= float64(len(points))
	}
	out := make([][]float64, len(points))
	for i, p := range points {
		q := make([]float64, dim)
		for d := 0; d < dim; d++ {
			if means[d] != 0 {
				q[d] = p[d] / means[d]
			} else {
				q[d] = p[d]
			}
		}
		out[i] = q
	}
	return out
}
