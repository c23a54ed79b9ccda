package markov

import (
	"math"
	"testing"
	"testing/quick"
)

func TestParamsValidate(t *testing.T) {
	good := Params{P: 0.1, M: UniformM(100, 4)}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(good): %v", err)
	}
	bad := []Params{
		{P: -0.1, M: UniformM(100, 4)},
		{P: 1.1, M: UniformM(100, 4)},
		{P: 0.1, M: nil},
		{P: 0.1, M: []float64{0.5}},
	}
	for i, pr := range bad {
		if pr.Validate() == nil {
			t.Errorf("bad[%d] accepted", i)
		}
	}
}

func TestTransitionMatrixRowsSumToOne(t *testing.T) {
	pr := Params{P: 0.2, M: []float64{100, 200, 50}}
	T := TransitionMatrix(pr)
	if len(T) != 8 {
		t.Fatalf("matrix size %d, want 8", len(T))
	}
	for i, row := range T {
		var s float64
		for _, v := range row {
			if v < 0 || v > 1 {
				t.Fatalf("T[%d] contains out-of-range prob %v", i, v)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-12 {
			t.Errorf("row %d sums to %v", i, s)
		}
	}
}

func TestTransitionMatrixSingleWarp(t *testing.T) {
	pr := Params{P: 0.1, M: []float64{100}}
	T := TransitionMatrix(pr)
	// State 0 = stalled, state 1 = runnable.
	if math.Abs(T[1][0]-0.1) > 1e-15 {
		t.Errorf("P(run->stall) = %v, want 0.1", T[1][0])
	}
	if math.Abs(T[1][1]-0.9) > 1e-15 {
		t.Errorf("P(run->run) = %v, want 0.9", T[1][1])
	}
	if math.Abs(T[0][1]-0.01) > 1e-15 {
		t.Errorf("P(stall->run) = %v, want 0.01", T[0][1])
	}
	if math.Abs(T[0][0]-0.99) > 1e-15 {
		t.Errorf("P(stall->stall) = %v, want 0.99", T[0][0])
	}
}

func TestSteadyStateIsDistribution(t *testing.T) {
	pr := Params{P: 0.15, M: []float64{80, 120, 100, 60}}
	v := SteadyStateDense(TransitionMatrix(pr))
	var s float64
	for _, x := range v {
		if x < -1e-12 {
			t.Fatalf("negative steady-state probability %v", x)
		}
		s += x
	}
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("steady state sums to %v", s)
	}
}

func TestDenseMatchesProduct(t *testing.T) {
	cases := []Params{
		{P: 0.05, M: UniformM(100, 4)},
		{P: 0.05, M: UniformM(400, 4)},
		{P: 0.2, M: UniformM(100, 4)},
		{P: 0.2, M: UniformM(400, 6)},
		{P: 0.5, M: []float64{10, 50, 200}},
		{P: 0.01, M: []float64{1000}},
	}
	for _, pr := range cases {
		d, p := IPCDense(pr), IPCProduct(pr)
		if math.Abs(d-p) > 1e-6 {
			t.Errorf("p=%v M=%v: dense %v != product %v", pr.P, pr.M, d, p)
		}
	}
}

func TestIPCLimits(t *testing.T) {
	// p=0: warps never stall; IPC -> 1.
	if got := IPCProduct(Params{P: 0, M: UniformM(100, 4)}); got != 1 {
		t.Errorf("IPC(p=0) = %v, want 1", got)
	}
	// Single warp, p=1, M large: almost always stalled.
	got := IPCProduct(Params{P: 1, M: []float64{1000}})
	want := 1 - 1000.0/1001.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("IPC(p=1,M=1000) = %v, want %v", got, want)
	}
	// More warps hide latency: IPC increases with N.
	prev := 0.0
	for n := 1; n <= 8; n++ {
		ipc := IPCProduct(Params{P: 0.2, M: UniformM(200, n)})
		if ipc <= prev {
			t.Errorf("IPC not increasing with N: n=%d ipc=%v prev=%v", n, ipc, prev)
		}
		prev = ipc
	}
}

func TestIPCDecreasesWithPAndM(t *testing.T) {
	prev := 2.0
	for _, p := range []float64{0.01, 0.05, 0.1, 0.3, 0.6} {
		ipc := IPCProduct(Params{P: p, M: UniformM(200, 4)})
		if ipc >= prev {
			t.Errorf("IPC not decreasing with p at p=%v", p)
		}
		prev = ipc
	}
	prev = 2.0
	for _, m := range []float64{10, 50, 100, 400, 1000} {
		ipc := IPCProduct(Params{P: 0.1, M: UniformM(m, 4)})
		if ipc >= prev {
			t.Errorf("IPC not decreasing with M at M=%v", m)
		}
		prev = ipc
	}
}

func TestStallSigma(t *testing.T) {
	if got := StallSigma(400); math.Abs(got-400*0.1/1.96) > 1e-12 {
		t.Errorf("StallSigma(400) = %v", got)
	}
}

func TestMonteCarloLemma41(t *testing.T) {
	// The Fig. 5 configurations: all should satisfy Lemma 4.1.
	cases := []struct {
		p float64
		m float64
		n int
	}{
		{0.05, 100, 4},
		{0.05, 400, 4},
		{0.2, 100, 4},
		{0.2, 400, 4},
		{0.05, 100, 6},
		{0.2, 400, 6},
	}
	for _, c := range cases {
		res := MonteCarlo(c.p, c.m, c.n, 10000, 42)
		if res.Within10 < 0.95 {
			t.Errorf("p=%v M=%v N=%d: within10 = %v < 0.95",
				c.p, c.m, c.n, res.Within10)
		}
		if res.MeanIPC <= 0 || res.MeanIPC > 1 {
			t.Errorf("mean IPC %v out of range", res.MeanIPC)
		}
		if !Lemma41Holds(c.p, c.m, c.n, 2000, 7) {
			t.Errorf("Lemma41Holds false for p=%v M=%v N=%d", c.p, c.m, c.n)
		}
	}
}

func TestMonteCarloDeterministic(t *testing.T) {
	a := MonteCarlo(0.1, 100, 4, 500, 3)
	b := MonteCarlo(0.1, 100, 4, 500, 3)
	for i := range a.IPCs {
		if a.IPCs[i] != b.IPCs[i] {
			t.Fatal("same-seed Monte Carlo diverged")
		}
	}
}

// Property: IPC predictions always lie in (0, 1].
func TestIPCRangeProperty(t *testing.T) {
	f := func(p8, m8, n8 uint8) bool {
		p := float64(p8) / 255
		m := 1 + float64(m8)*4
		n := 1 + int(n8%8)
		pr := Params{P: p, M: UniformM(m, n)}
		ipc := IPCProduct(pr)
		return ipc > 0 && ipc <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: dense and product solutions agree for random small configs.
func TestDenseProductAgreementProperty(t *testing.T) {
	f := func(p8, m8 uint8, n8 uint8) bool {
		p := 0.01 + float64(p8)/300
		n := 1 + int(n8%5)
		ms := make([]float64, n)
		for i := range ms {
			ms[i] = 10 + float64(m8)*2 + float64(i*7)
		}
		pr := Params{P: p, M: ms}
		return math.Abs(IPCDense(pr)-IPCProduct(pr)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestUniformM(t *testing.T) {
	ms := UniformM(42, 3)
	if len(ms) != 3 || ms[0] != 42 || ms[2] != 42 {
		t.Errorf("UniformM = %v", ms)
	}
}
