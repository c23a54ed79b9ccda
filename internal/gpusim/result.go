package gpusim

import (
	"context"

	"tbpoint/internal/metrics"
)

// SMStat is the per-SM outcome of a launch simulation.
type SMStat struct {
	// WarpInsts is the number of warp instructions the SM issued.
	WarpInsts int64
	// Cycles is the SM's active-cycle count: the cycle of its last issue
	// (the per-core cycle count Macsim would report).
	Cycles int64
}

// UnitStats is one "specified thread block" sampling unit (§IV-B2): the
// interval between the start and end of the designated thread block,
// measured over the whole GPU.
type UnitStats struct {
	Index       int
	SpecifiedTB int
	StartCycle  int64
	EndCycle    int64
	// WarpInsts is the number of warp instructions issued GPU-wide during
	// the unit.
	WarpInsts int64
}

// IPC returns the unit's GPU-wide IPC.
func (u UnitStats) IPC() float64 {
	c := u.EndCycle - u.StartCycle
	if c <= 0 {
		return 0
	}
	return float64(u.WarpInsts) / float64(c)
}

// FixedUnit is one fixed-size sampling unit (a fixed number of warp
// instructions), the unit the Random and Ideal-Simpoint baselines use
// (§V-A, "sampling units with one million instructions"). BBV holds the
// per-basic-block executed-instruction counts of the unit.
type FixedUnit struct {
	Index     int
	WarpInsts int64
	Cycles    int64
	BBV       []int64
}

// IPC returns the unit's GPU-wide IPC.
func (f FixedUnit) IPC() float64 {
	if f.Cycles <= 0 {
		return 0
	}
	return float64(f.WarpInsts) / float64(f.Cycles)
}

// LaunchResult is the outcome of simulating (possibly a sampled subset of)
// one kernel launch.
type LaunchResult struct {
	// Cycles is the launch duration (dispatch of the first block to
	// retirement of the last simulated block).
	Cycles int64
	// SMs holds per-SM statistics.
	SMs []SMStat
	// Units are the specified-thread-block sampling units, in order.
	Units []UnitStats
	// FixedUnits are the fixed-size units (empty unless requested).
	FixedUnits []FixedUnit

	// TBOrder is the order in which the serial engine dispatched and retired
	// thread blocks, one entry per event: block b's dispatch is b, its
	// retirement ^b; a unit in Units closes right after the retirement of
	// its specified block. With Units it is the run's record at block
	// granularity: RunOptions.SkipTB reads it as it grows, and a run that
	// skipped nothing can be replayed from it instead of repeated
	// (core.SampleLaunch). It is never serialised — a decoded result has
	// none — and the parallel engine, whose timing differs by design,
	// leaves it nil.
	TBOrder []int32 `json:"-"`

	SimulatedTBs int
	SkippedTBs   int
	// SimulatedWarpInsts counts instructions actually simulated; skipped
	// thread blocks contribute nothing here.
	SimulatedWarpInsts int64

	// Aborted reports that the run was cut short by RunOptions.Ctx. The
	// result is then a consistent partial: every closed sampling unit is
	// complete and counters cover exactly the simulated prefix, but the
	// launch did not run to completion, so Cycles/IPC are not comparable
	// to a full run's.
	Aborted bool

	// Memory system statistics.
	L1Hits, L1Misses int64
	L2Hits, L2Misses int64
	DRAMAccesses     int64
	DRAMRowHits      int64
	Writebacks       int64
	MSHRMerges       int64
}

// OverallIPC is the Fig. 9 metric: the sum over SMs of each SM's
// instructions divided by its cycles. SMs that issued nothing contribute
// zero.
func (r *LaunchResult) OverallIPC() float64 {
	var total float64
	for _, s := range r.SMs {
		if s.Cycles > 0 {
			total += float64(s.WarpInsts) / float64(s.Cycles)
		}
	}
	return total
}

// TotalIPC is the whole-GPU IPC: instructions issued per elapsed cycle.
func (r *LaunchResult) TotalIPC() float64 {
	if r.Cycles <= 0 {
		return 0
	}
	return float64(r.SimulatedWarpInsts) / float64(r.Cycles)
}

// RunOptions configure one launch simulation.
type RunOptions struct {
	// SkipTB, when non-nil, is asked exactly once per thread block, in block
	// order, when tb is about to be dispatched; returning true fast-forwards
	// it (the block retires instantly and is never simulated), so the callee
	// does its own accounting of what it skipped. sofar is the live result,
	// read-only: its TBOrder and Units hold every dispatch, retirement and
	// unit close of the run before this call, which is everything a sampling
	// layer learns about the run while it runs.
	SkipTB func(tb int, sofar *LaunchResult) bool
	// Ctx, when non-nil, makes the run abortable: cancellation is polled at
	// launch start and at every sampling-unit boundary (specified-TB and
	// fixed-size units), and a cancelled run stops dispatching, returns
	// early, and flags its partial LaunchResult as Aborted. A nil Ctx (or
	// one that is never cancelled) leaves the simulation bit-identical to a
	// run without it.
	Ctx context.Context
	// FixedUnitInsts, when positive, closes a FixedUnit, with its BBV,
	// every that many warp instructions.
	FixedUnitInsts int64
	// Metrics, when non-nil, receives the run's observability counters
	// (issue/stall breakdown, scheduler events, cache/MSHR/DRAM behaviour;
	// see internal/metrics). Collection is observation-only: a run with
	// metrics enabled is bit-identical to one without. The collector is a
	// single-writer structure — concurrent RunLaunch calls must each use
	// their own collector and Merge afterwards.
	Metrics *metrics.Collector
	// Workers, when > 1, runs the launch in epoch-synchronized parallel
	// mode: SMs are partitioned across Workers goroutines that advance
	// independently for Quantum cycles at a time, exchanging memory-system
	// traffic at a barrier between epochs (see parallel.go). Results are
	// deterministic for a fixed Quantum and — because no cross-SM state is
	// touched between barriers and barrier processing uses a globally
	// sorted order — independent of the worker count; they differ slightly
	// from serial mode (cross-SM memory timing is quantized to epochs, with
	// divergence bounded by the quantum). Zero or one selects the serial
	// event loop, which is bit-identical to builds without this field.
	Workers int
	// Quantum is the parallel-mode epoch length in cycles; values < 1
	// select DefaultQuantum. Ignored by serial runs. Larger quanta
	// amortize barriers harder (faster) at the cost of more cross-SM
	// timing divergence.
	Quantum int64
}
