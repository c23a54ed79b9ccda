// Package markov implements the mathematical model of §IV-A: a Markov chain
// over warp states that predicts the IPC of a homogeneous interval under
// warp interleaving, and a Monte-Carlo driver that quantifies the IPC
// variation caused by variable stall latencies M (Lemma 4.1, Fig. 5).
//
// Each warp is a two-state chain: runnable (bit 1) or stalled (bit 0).
// A runnable warp stalls with probability p per cycle; a stalled warp with
// mean stall latency M becomes runnable with probability 1/M per cycle.
// With N warps per SM the joint chain has 2^N states; because warps are
// modelled i.i.d. (Eq. 3), the joint chain factorises, and the package
// provides both the paper's explicit 2^N×2^N construction (Eq. 3, solved by
// power iteration) and the closed-form product solution. The two agree to
// numerical precision, which the test suite verifies — the dense chain
// validates the model, the product form makes 10,000-sample Monte Carlo
// cheap.
package markov

import (
	"fmt"
	"math"

	"tbpoint/internal/stats"
)

// Params parameterises a homogeneous interval: the stall probability p
// (constant) and each warp's mean stall latency M (cycles).
type Params struct {
	P float64   // stall probability per issued instruction/cycle, 0 <= P <= 1
	M []float64 // per-warp mean stall cycles; len(M) == N warps, each >= 1
}

// Validate checks model preconditions.
func (pr Params) Validate() error {
	if pr.P < 0 || pr.P > 1 {
		return fmt.Errorf("markov: p = %v out of [0,1]", pr.P)
	}
	if len(pr.M) == 0 {
		return fmt.Errorf("markov: no warps")
	}
	for i, m := range pr.M {
		if m < 1 {
			return fmt.Errorf("markov: M[%d] = %v < 1", i, m)
		}
	}
	return nil
}

// N returns the number of warps.
func (pr Params) N() int { return len(pr.M) }

// TransitionMatrix builds the full 2^N x 2^N transition matrix T of Eq. 3.
// Bit x of a state is warp x's status (1 = runnable, 0 = stalled); warp 0
// is the least significant bit. T[i][j] is the probability of moving from
// state i to state j in one cycle.
func TransitionMatrix(pr Params) [][]float64 {
	n := pr.N()
	size := 1 << uint(n)
	T := make([][]float64, size)
	for i := 0; i < size; i++ {
		row := make([]float64, size)
		for j := 0; j < size; j++ {
			prob := 1.0
			for x := 0; x < n; x++ {
				ai := (i >> uint(x)) & 1
				aj := (j >> uint(x)) & 1
				var f float64
				if ai != aj {
					// Eq. 3, differing bits: runnable->stalled with p,
					// stalled->runnable with 1/M.
					f = float64(ai)*pr.P + float64(1-ai)*(1/pr.M[x])
				} else {
					f = float64(ai)*(1-pr.P) + float64(1-ai)*(1-1/pr.M[x])
				}
				prob *= f
			}
			row[j] = prob
		}
		T[i] = row
	}
	return T
}

// SteadyStateDense computes the stationary distribution of T by power
// iteration, starting (as the paper does) from the all-runnable state
// V_i = <0, 0, ..., 1>.
func SteadyStateDense(T [][]float64) []float64 {
	size := len(T)
	v := make([]float64, size)
	v[size-1] = 1 // all warps runnable
	next := make([]float64, size)
	const maxIters = 10000
	for iter := 0; iter < maxIters; iter++ {
		for j := range next {
			next[j] = 0
		}
		for i, row := range T {
			vi := v[i]
			if vi == 0 {
				continue
			}
			for j, tij := range row {
				next[j] += vi * tij
			}
		}
		var diff float64
		for j := range v {
			diff += math.Abs(next[j] - v[j])
		}
		v, next = next, v
		if diff < 1e-13 {
			break
		}
	}
	return v
}

// IPCDense predicts the interval IPC with the explicit chain:
// IPC = 1.0 * (1 - R_0), where R_0 is the steady-state probability of the
// all-stalled state (Eq. 3). Use for N up to ~12; beyond that the matrix is
// impractical and IPCProduct should be used.
func IPCDense(pr Params) float64 {
	v := SteadyStateDense(TransitionMatrix(pr))
	return 1 - v[0]
}

// IPCProduct predicts the interval IPC in closed form. Because Eq. 3
// factorises over warps, each warp's stationary stall probability is
// p*M/(1 + p*M), and the all-stalled probability is their product.
func IPCProduct(pr Params) float64 {
	prod := 1.0
	for _, m := range pr.M {
		prod *= pr.P * m / (1 + pr.P*m)
	}
	return 1 - prod
}

// StallSigma returns the standard deviation the paper assigns to the stall
// latency distribution: sigma = 0.1*mu/1.96, so that 95% of sampled Ms fall
// within +/-10% of the mean (§IV-A).
func StallSigma(mu float64) float64 { return 0.1 * mu / 1.96 }

// MonteCarloResult summarises a Fig. 5 style experiment.
type MonteCarloResult struct {
	P       float64
	MeanM   float64
	N       int
	Samples int

	IPCs    []float64 // one predicted IPC per sample
	MeanIPC float64
	// Within10 is the fraction of samples whose IPC lies within 10% of the
	// mean IPC — Lemma 4.1 claims this exceeds 0.95.
	Within10 float64
}

// MonteCarlo performs the Lemma 4.1 experiment: it draws each warp's M from
// N(meanM, StallSigma(meanM)^2) for the given number of samples, predicts
// the IPC of each draw, and reports the variation. Draws are truncated at 1
// cycle. Each draw is solved with the closed-form product solution, which
// equals the explicit 2^N chain (IPCDense) of the paper's construction.
func MonteCarlo(p, meanM float64, n, samples int, seed uint64) *MonteCarloResult {
	rng := stats.NewRNG(seed)
	sigma := StallSigma(meanM)
	res := &MonteCarloResult{P: p, MeanM: meanM, N: n, Samples: samples}
	res.IPCs = make([]float64, samples)
	ms := make([]float64, n)
	for s := 0; s < samples; s++ {
		for x := range ms {
			m := rng.Gaussian(meanM, sigma)
			if m < 1 {
				m = 1
			}
			ms[x] = m
		}
		res.IPCs[s] = IPCProduct(Params{P: p, M: ms})
	}
	res.MeanIPC = stats.Mean(res.IPCs)
	res.Within10 = stats.FractionWithin(res.IPCs, res.MeanIPC, 0.10)
	return res
}

// Lemma41Holds reports whether the Lemma 4.1 criterion holds for the given
// configuration: more than 95% of Monte-Carlo samples within 10% of the
// average IPC.
func Lemma41Holds(p, meanM float64, n, samples int, seed uint64) bool {
	return MonteCarlo(p, meanM, n, samples, seed).Within10 >= 0.95
}

// UniformM returns an M slice of n warps all with mean m, the homogeneous
// interval configuration.
func UniformM(m float64, n int) []float64 {
	ms := make([]float64, n)
	for i := range ms {
		ms[i] = m
	}
	return ms
}
