package main

import (
	"math"
	"sort"

	"tbpoint/internal/stats"
)

// quartiles returns the first quartile, median and third quartile of xs by
// the same rule as Python's statistics.quantiles(xs, n=4) (exclusive
// method), which is what the driver applies to a set of runs. Fewer than two
// values have no spread: all three are the single value (or 0).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// tailPercentile picks the highest of p99/p95/p90/p75 that still has at
// least ten samples beyond it, so the reported tail is a measured value and
// not the luck of one or two outliers. Below 40 samples none qualifies and
// the tail falls back to the median.
func tailPercentile(n int) int {
	for _, p := range []int{99, 95, 90, 75} {
		if float64(n)*float64(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// geomeanPct is the geometric mean of fractions, reported in percent.
// Entries are floored at 0.01% like the harness's own report (an exact-zero
// sampling error at small scale must not collapse the mean).
func geomeanPct(fracs []float64) float64 {
	floored := make([]float64, len(fracs))
	for i, v := range fracs {
		floored[i] = math.Max(v, 1e-4)
	}
	return 100 * stats.GeoMean(floored)
}
