package gpusim

import (
	"math"
	"testing"

	"tbpoint/internal/isa"
	"tbpoint/internal/kernel"
	"tbpoint/internal/markov"
)

// TestSimulatorMatchesMarkovModel cross-validates the timing simulator
// against the §IV-A analytical model on a controlled homogeneous interval:
//
//   - every non-memory instruction issues in one cycle (Latencies set to 1)
//     so a runnable warp issues every cycle, as the model assumes;
//   - every memory access hits the L1 (stride-0 loads of one line), so the
//     stall latency M is the constant L1 hit latency;
//   - the instruction mix fixes the stall probability p.
//
// The model predicts per-SM IPC = 1 - (pM/(1+pM))^N for N resident warps.
// The simulator should land within a modest tolerance (the model is i.i.d.
// per cycle; the simulator executes a deterministic instruction mix, so
// perfect agreement is not expected — the paper makes the same
// approximation).
func TestSimulatorMatchesMarkovModel(t *testing.T) {
	const (
		mLat    = 40  // L1 hit latency = stall cycles M
		bodyLen = 10  // loop body instructions per memory op -> p = 1/10
		trips   = 400 // long interval so boundary effects vanish
	)
	cases := []struct {
		warps int
	}{{2}, {4}, {8}}
	for _, c := range cases {
		// One block of c warps per SM, one SM: N = c warps interleave.
		cfg := DefaultConfig()
		cfg.NumSMs = 1
		cfg.DispatchInterval = 0
		cfg.Lat = Latencies{IALU: 1, FALU: 1, SFU: 1, LDS: 1, BRA: 1, BAR: 1}
		cfg.L1.HitLat = mLat
		cfg.Limits.MaxBlocks = 1 // exactly one resident block

		prog := isa.NewBuilder("markov").
			LoopBlocks(0, isa.Cat(
				isa.Load(1, 1, 0), // stride 0: always the same line -> L1 hit
				isa.Rep(isa.IALU(), bodyLen-2),
				isa.Branch(),
			)...).
			EndBlock().
			Build()
		k := &kernel.Kernel{Name: "markov", Program: prog,
			ThreadsPerBlock: c.warps * kernel.WarpSize}
		l := kernel.NewLaunch(k, 0, []kernel.TBParams{
			{Trips: []int{trips}, ActiveFrac: 1, Seed: 1},
		})

		res := MustNew(cfg).RunLaunch(l, RunOptions{})
		simIPC := res.TotalIPC()

		p := 1.0 / bodyLen
		want := markov.IPCProduct(markov.Params{P: p, M: markov.UniformM(mLat, c.warps)})

		// The simulator's deterministic round-robin interleaving differs
		// from the model's i.i.d. assumption in both directions (it can
		// stagger warps near-perfectly, hiding more latency, or serialise
		// simultaneous wake-ups, hiding less), so agreement is expected
		// only to first order.
		if rel := math.Abs(simIPC-want) / want; rel > 0.35 {
			t.Errorf("N=%d: simulator IPC %.4f vs Markov prediction %.4f (%.1f%% apart)",
				c.warps, simIPC, want, rel*100)
		}
	}
}

// TestSimulatorIPCMonotoneInWarps checks the latency-hiding trend the model
// predicts: more resident warps -> higher IPC, saturating at 1 per SM.
func TestSimulatorIPCMonotoneInWarps(t *testing.T) {
	prev := 0.0
	for _, warps := range []int{1, 2, 4, 8, 12} {
		cfg := DefaultConfig()
		cfg.NumSMs = 1
		cfg.Lat = Latencies{IALU: 1, FALU: 1, SFU: 1, LDS: 1, BRA: 1, BAR: 1}
		cfg.Limits.MaxBlocks = 1
		prog := isa.NewBuilder("mono").
			LoopBlocks(0, isa.Load(1, 1, 0), isa.IALU(), isa.IALU(), isa.Branch()).
			EndBlock().
			Build()
		k := &kernel.Kernel{Name: "mono", Program: prog, ThreadsPerBlock: warps * 32}
		l := kernel.NewLaunch(k, 0, []kernel.TBParams{
			{Trips: []int{300}, ActiveFrac: 1, Seed: 1},
		})
		ipc := MustNew(cfg).RunLaunch(l, RunOptions{}).TotalIPC()
		if ipc <= prev {
			t.Errorf("IPC not increasing: %d warps -> %.4f (prev %.4f)", warps, ipc, prev)
		}
		if ipc > 1.0 {
			t.Errorf("single-issue SM exceeded IPC 1: %.4f", ipc)
		}
		prev = ipc
	}
}
