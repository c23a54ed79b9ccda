package cluster

import (
	"math"

	"tbpoint/internal/stats"
)

// KMeansResult holds the outcome of one k-means run.
type KMeansResult struct {
	K         int
	Assign    []int       // cluster id per point
	Centroids [][]float64 // k centroids
	SSE       float64     // sum of squared distances to assigned centroids
}

// KMeans clusters points into k clusters using k-means++ seeding and Lloyd
// iterations, deterministically under the given seed. It handles k >= number
// of distinct points by leaving surplus clusters empty (they are dropped
// from the result's centroid list and assignments are renumbered densely).
func KMeans(points [][]float64, k int, seed uint64) *KMeansResult {
	n := len(points)
	if n == 0 || k <= 0 {
		return &KMeansResult{K: 0}
	}
	if k > n {
		k = n
	}
	rng := stats.NewRNG(seed)
	dim := len(points[0])

	centroids := seedPlusPlus(points, k, rng)
	k = len(centroids)

	assign := make([]int, n)
	const maxIters = 100
	for iter := 0; iter < maxIters; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c := range centroids {
				if dv := sqDist(p, centroids[c]); dv < bestD {
					best, bestD = c, dv
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids.
		counts := make([]int, k)
		sums := make([][]float64, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for d := 0; d < dim; d++ {
				sums[c][d] += p[d]
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				continue // keep the old centroid for empty clusters
			}
			for d := 0; d < dim; d++ {
				centroids[c][d] = sums[c][d] / float64(counts[c])
			}
		}
	}

	// Drop empty clusters and renumber densely.
	counts := make([]int, k)
	for _, a := range assign {
		counts[a]++
	}
	remap := make([]int, k)
	var kept [][]float64
	next := 0
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			remap[c] = -1
			continue
		}
		remap[c] = next
		next++
		kept = append(kept, centroids[c])
	}
	var sse float64
	for i := range assign {
		assign[i] = remap[assign[i]]
		sse += sqDist(points[i], kept[assign[i]])
	}
	return &KMeansResult{K: next, Assign: assign, Centroids: kept, SSE: sse}
}

// seedPlusPlus picks up to k initial centroids (copies of points) by
// k-means++ seeding, stopping early when every point coincides with a chosen
// centroid. d2[i] is point i's squared distance to its nearest centroid so
// far; each round folds in only the newest centroid, since the minimum over
// the chosen centroids does not depend on their order.
func seedPlusPlus(points [][]float64, k int, rng *stats.RNG) [][]float64 {
	n := len(points)
	centroids := make([][]float64, 0, k)
	first := rng.Intn(n)
	centroids = append(centroids, append([]float64(nil), points[first]...))
	d2 := make([]float64, n)
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	for len(centroids) < k {
		newest := centroids[len(centroids)-1]
		var sum float64
		for i, p := range points {
			if dv := sqDist(p, newest); dv < d2[i] {
				d2[i] = dv
			}
			sum += d2[i]
		}
		if sum == 0 {
			break
		}
		target := rng.Float64() * sum
		idx := 0
		for i, v := range d2 {
			target -= v
			if target <= 0 {
				idx = i
				break
			}
		}
		centroids = append(centroids, append([]float64(nil), points[idx]...))
	}
	return centroids
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// BIC returns the Bayesian information criterion score of a k-means
// clustering, following the spherical-Gaussian formulation used by the
// SimPoint tool (Pelleg & Moore's X-means score). Higher is better.
func BIC(points [][]float64, r *KMeansResult) float64 {
	n := len(points)
	if n == 0 || r.K == 0 {
		return math.Inf(-1)
	}
	d := float64(len(points[0]))
	k := float64(r.K)
	nf := float64(n)

	// Maximum-likelihood variance estimate (shared, spherical).
	variance := r.SSE / (nf - k)
	if variance <= 0 {
		variance = 1e-12
	}
	counts := make([]int, r.K)
	for _, a := range r.Assign {
		counts[a]++
	}
	var logL float64
	for _, cn := range counts {
		cnf := float64(cn)
		if cnf == 0 {
			continue
		}
		logL += cnf*math.Log(cnf) -
			cnf*math.Log(nf) -
			cnf*d/2*math.Log(2*math.Pi*variance) -
			(cnf-k)/2
	}
	numParams := k*(d+1) - 1
	return logL - numParams/2*math.Log(nf)
}

// KMeansBIC runs k-means for k = 1..maxK and returns the clustering chosen
// by the SimPoint rule: the smallest k whose BIC score reaches at least
// bicFrac (e.g. 0.9) of the best score observed. Scores are shifted to be
// positive before applying the fraction so the rule is well defined for
// negative BICs.
func KMeansBIC(points [][]float64, maxK int, bicFrac float64, seed uint64) *KMeansResult {
	if maxK < 1 {
		maxK = 1
	}
	if maxK > len(points) {
		maxK = len(points)
	}
	results := make([]*KMeansResult, 0, maxK)
	scores := make([]float64, 0, maxK)
	bestScore := math.Inf(-1)
	for k := 1; k <= maxK; k++ {
		r := KMeans(points, k, seed+uint64(k))
		s := BIC(points, r)
		results = append(results, r)
		scores = append(scores, s)
		if s > bestScore {
			bestScore = s
		}
	}
	// Shift scores so the minimum maps to 0 and the best to 1.
	minScore := math.Inf(1)
	for _, s := range scores {
		if s < minScore {
			minScore = s
		}
	}
	span := bestScore - minScore
	for i, s := range scores {
		norm := 1.0
		if span > 0 {
			norm = (s - minScore) / span
		}
		if norm >= bicFrac {
			return results[i]
		}
	}
	return results[len(results)-1]
}
