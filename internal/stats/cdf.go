package stats

import "sort"

// CDFPoint is one point of an empirical cumulative distribution function.
type CDFPoint struct {
	Value    float64 // sample value
	Fraction float64 // fraction of samples <= Value
}

// CDF returns the empirical CDF of xs as a sorted series of points, one per
// distinct sample. It is used to render the Fig. 5 IPC-variation curves.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]CDFPoint, 0, len(s))
	n := float64(len(s))
	for i := 0; i < len(s); i++ {
		// Collapse runs of equal values into the last index of the run.
		if i+1 < len(s) && s[i+1] == s[i] {
			continue
		}
		out = append(out, CDFPoint{Value: s[i], Fraction: float64(i+1) / n})
	}
	return out
}
