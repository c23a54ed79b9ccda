// Package funcsim is the functional profiler — our substitute for GPUOcelot
// (§II-B). It executes kernel launches functionally (no timing) and collects
// the per-thread-block statistics TBPoint's profiling consumes:
//
//   - thread instructions per block (the "thread block size"),
//   - warp instructions per block,
//   - global/local memory requests per block,
//   - per-basic-block execution counts.
//
// Profiling is hardware independent — none of these counters depend on the
// simulated configuration — which is what gives TBPoint its one-time
// profiling property (Table II).
//
// ProfileLaunch derives the counters analytically from the kernel IR: one
// walk over the kernel program, and one 24-byte counter row, per distinct
// thread-block shape; blocks index the rows through the launch's own ShapeOf.
// The test suite holds it to a reference that walks the launch's instruction
// streams event by event — the streams the timing simulator reads — so the
// profiler counts what the simulator executes.
// ProfileApp runs ProfileLaunch for every launch, fanned out over the shared
// worker budget.
package funcsim

import (
	"math"

	"tbpoint/internal/kernel"
	"tbpoint/internal/par"
)

// TBProfile holds the profiled counters of one thread block.
type TBProfile struct {
	ThreadInsts int64
	WarpInsts   int64
	MemRequests int64
}

// StallProb is the approximated stall probability of the block: the ratio
// of memory requests to warp instructions (§IV-B1). It returns 0 for an
// empty block.
func (p TBProfile) StallProb() float64 {
	if p.WarpInsts == 0 {
		return 0
	}
	return float64(p.MemRequests) / float64(p.WarpInsts)
}

// LaunchProfile holds the profile of one kernel launch, laid out like the
// launch: each distinct thread block's counters once, indexed per block.
type LaunchProfile struct {
	// Shapes holds the counters of each distinct thread block. A profile
	// from ProfileLaunch has one row per Launch.Shapes entry.
	Shapes []TBProfile
	// ShapeOf maps thread block ID -> index into Shapes. ProfileLaunch
	// aliases the launch's own ShapeOf (like a shape's Trips): read-only.
	ShapeOf []uint32
	// BlockCounts are aggregate per-basic-block executed-instruction counts
	// across the launch (one entry per static basic block of the kernel
	// program), the SimPoint BBV weighting.
	BlockCounts []int64
}

// Block returns thread block tb's counters.
func (lp *LaunchProfile) Block(tb int) TBProfile { return lp.Shapes[lp.ShapeOf[tb]] }

// NumBlocks returns the number of thread blocks profiled.
func (lp *LaunchProfile) NumBlocks() int { return len(lp.ShapeOf) }

// totals sums each counter over the launch's blocks (integers: exact in any
// order), with no per-shape scratch an all-distinct launch would pay for.
func (lp *LaunchProfile) totals() (t TBProfile) {
	for _, s := range lp.ShapeOf {
		p := &lp.Shapes[s]
		t.ThreadInsts += p.ThreadInsts
		t.WarpInsts += p.WarpInsts
		t.MemRequests += p.MemRequests
	}
	return t
}

// TotalThreadInsts returns the launch's thread instructions (the "kernel
// launch size" feature of Eq. 2).
func (lp *LaunchProfile) TotalThreadInsts() int64 { return lp.totals().ThreadInsts }

// TotalWarpInsts returns the launch's warp instructions (the "control flow
// divergence" feature of Eq. 2).
func (lp *LaunchProfile) TotalWarpInsts() int64 { return lp.totals().WarpInsts }

// TotalMemRequests returns the launch's memory requests (the "memory
// divergence" feature of Eq. 2).
func (lp *LaunchProfile) TotalMemRequests() int64 { return lp.totals().MemRequests }

// TBSizes returns the per-block thread-instruction counts as floats, the
// series behind the Fig. 8 scatter plots and the CoV feature of Eq. 2.
func (lp *LaunchProfile) TBSizes() []float64 {
	out := make([]float64, len(lp.ShapeOf))
	for tb, s := range lp.ShapeOf {
		out[tb] = float64(lp.Shapes[s].ThreadInsts)
	}
	return out
}

// TBSizeCoV returns the coefficient of variation of thread-block sizes
// (the "thread block variations" feature of Eq. 2). It is stats.CoV of
// TBSizes() bit for bit — the same passes over the blocks in ID order —
// without materialising the series (one float per thread block, on every
// core.InterFeatures call).
func (lp *LaunchProfile) TBSizeCoV() float64 {
	n := float64(len(lp.ShapeOf))
	var sum float64
	for _, s := range lp.ShapeOf {
		sum += float64(lp.Shapes[s].ThreadInsts)
	}
	mean := sum / n
	if len(lp.ShapeOf) < 2 || mean == 0 {
		return 0
	}
	var ss float64
	for _, s := range lp.ShapeOf {
		d := float64(lp.Shapes[s].ThreadInsts) - mean
		ss += d * d
	}
	return math.Sqrt(ss/n) / math.Abs(mean)
}

// ProfileLaunch profiles a launch analytically from its IR: one walk over
// the kernel program per distinct shape, and nothing stored per thread
// block.
func ProfileLaunch(l *kernel.Launch) *LaunchProfile {
	prog := l.Kernel.Program
	lp := &LaunchProfile{
		Shapes:      make([]TBProfile, len(l.Shapes)),
		ShapeOf:     l.ShapeOf,
		BlockCounts: make([]int64, len(prog.Blocks)),
	}
	// Each shape's walk puts its per-warp execution counts into BlockCounts
	// once, weighted by the blocks of that shape (integers: exact in any
	// order).
	blocksOf := l.ShapeBlocks()
	execs := make([]int64, len(prog.Blocks))
	for s := range lp.Shapes {
		p := &lp.Shapes[s]
		clear(execs)
		p.ThreadInsts, p.WarpInsts, p.MemRequests = l.ShapeCounts(s, execs)
		for bi, e := range execs {
			lp.BlockCounts[bi] += blocksOf[s] * e
		}
	}
	// BlockCounts now holds per-warp execution counts summed over the
	// launch. BBV semantics follow SimPoint: a basic block's weight is the
	// number of instructions executed within it, not the number of times it
	// was entered.
	warps := int64(l.Kernel.WarpsPerBlock())
	for bi := range lp.BlockCounts {
		lp.BlockCounts[bi] *= warps * int64(len(prog.Blocks[bi].Instrs))
	}
	return lp
}

// ProfileApp profiles every launch of an application. Launches are
// independent, so they fan out over the shared worker budget (internal/par)
// and land by launch index.
func ProfileApp(app *kernel.App) []*LaunchProfile {
	out := make([]*LaunchProfile, len(app.Launches))
	err := par.ForEach(len(out), func(i int) error {
		out[i] = ProfileLaunch(app.Launches[i])
		return nil
	})
	if err != nil {
		// The tasks return no error, so this is a recovered task panic
		// (*par.PanicError): re-raise it on the caller's goroutine.
		panic(err)
	}
	return out
}
