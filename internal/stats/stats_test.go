package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEq(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance of singleton = %v, want 0", got)
	}
}

func TestCoV(t *testing.T) {
	if got := CoV([]float64{5, 5, 5}); got != 0 {
		t.Errorf("CoV of constant = %v, want 0", got)
	}
	if got := CoV([]float64{0, 0}); got != 0 {
		t.Errorf("CoV of zeros = %v, want 0", got)
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := CoV(xs); !almostEq(got, 2.0/5.0, 1e-12) {
		t.Errorf("CoV = %v, want 0.4", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 100}); !almostEq(got, 10, 1e-9) {
		t.Errorf("GeoMean(1,100) = %v, want 10", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v, want 0", got)
	}
	// Non-positive entries are clamped, not fatal.
	if got := GeoMean([]float64{0, 1}); got <= 0 {
		t.Errorf("GeoMean with zero entry = %v, want > 0", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {-5, 1}, {105, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(11, 10); !almostEq(got, 0.1, 1e-12) {
		t.Errorf("RelErr(11,10) = %v, want 0.1", got)
	}
	if got := RelErr(0, 0); got != 0 {
		t.Errorf("RelErr(0,0) = %v, want 0", got)
	}
	if got := RelErr(1, 0); !math.IsInf(got, 1) {
		t.Errorf("RelErr(1,0) = %v, want +Inf", got)
	}
}

func TestFractionWithin(t *testing.T) {
	xs := []float64{90, 95, 100, 105, 110, 150}
	if got := FractionWithin(xs, 100, 0.10); !almostEq(got, 5.0/6.0, 1e-12) {
		t.Errorf("FractionWithin = %v, want 5/6", got)
	}
	if got := FractionWithin(nil, 100, 0.1); got != 0 {
		t.Errorf("FractionWithin(nil) = %v, want 0", got)
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v", got)
	}
	if got := Sum(xs); got != 11 {
		t.Errorf("Sum = %v", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seeded RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a.Seed(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 equal outputs", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnUniformity(t *testing.T) {
	r := NewRNG(1)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Intn(10)]++
	}
	for i, c := range counts {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Errorf("bucket %d count %d far from expected %d", i, c, n/10)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestGaussianMoments(t *testing.T) {
	r := NewRNG(99)
	const n = 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Gaussian(400, 20)
	}
	if m := Mean(xs); !almostEq(m, 400, 0.5) {
		t.Errorf("Gaussian mean = %v, want ~400", m)
	}
	if s := StdDev(xs); !almostEq(s, 20, 0.5) {
		t.Errorf("Gaussian stddev = %v, want ~20", s)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestCDF(t *testing.T) {
	xs := []float64{3, 1, 2, 2}
	cdf := CDF(xs)
	want := []CDFPoint{{1, 0.25}, {2, 0.75}, {3, 1.0}}
	if len(cdf) != len(want) {
		t.Fatalf("CDF has %d points, want %d", len(cdf), len(want))
	}
	for i := range want {
		if cdf[i] != want[i] {
			t.Errorf("cdf[%d] = %v, want %v", i, cdf[i], want[i])
		}
	}
}

// Property: the empirical CDF is monotonically non-decreasing in both value
// and fraction, and ends at fraction 1.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		cdf := CDF(xs)
		for i := 1; i < len(cdf); i++ {
			if cdf[i].Value <= cdf[i-1].Value || cdf[i].Fraction < cdf[i-1].Fraction {
				return false
			}
		}
		return cdf[len(cdf)-1].Fraction == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: percentile is bounded by min and max and monotone in p.
func TestPercentileBoundsProperty(t *testing.T) {
	f := func(raw []uint16, p8 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		p := float64(p8) / 255 * 100
		v := Percentile(xs, p)
		return v >= Min(xs)-1e-9 && v <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mean is bounded by min and max.
func TestMeanBoundsProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-9 && m <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Pearson(xs, xs); !almostEq(got, 1, 1e-12) {
		t.Errorf("self correlation = %v, want 1", got)
	}
	neg := []float64{5, 4, 3, 2, 1}
	if got := Pearson(xs, neg); !almostEq(got, -1, 1e-12) {
		t.Errorf("anti correlation = %v, want -1", got)
	}
	if got := Pearson(xs, []float64{7, 7, 7, 7, 7}); got != 0 {
		t.Errorf("constant series correlation = %v, want 0", got)
	}
	if got := Pearson(xs, xs[:3]); got != 0 {
		t.Errorf("length mismatch = %v, want 0", got)
	}
	// Noisy positive correlation lands in (0, 1).
	ys := []float64{1.1, 2.3, 2.7, 4.2, 4.8}
	if got := Pearson(xs, ys); got <= 0.9 || got >= 1 {
		t.Errorf("noisy correlation = %v", got)
	}
}
