// Package kernel models the CUDA-style execution hierarchy the paper
// assumes: kernels, kernel launches, thread blocks and warps, plus the
// occupancy calculation that determines how many thread blocks run
// concurrently ("SM occupancy" and "system occupancy" in the paper's
// terminology, §II-A).
package kernel

import (
	"fmt"

	"tbpoint/internal/isa"
)

// WarpSize is the number of threads (lanes) in a warp.
const WarpSize = 32

// Kernel is the static description of a GPGPU kernel: its program and the
// per-block resource demands that determine occupancy.
type Kernel struct {
	Name    string
	Program *isa.Program

	// ThreadsPerBlock is the block size in threads; it must be a positive
	// multiple of WarpSize for simplicity (CUDA rounds partial warps up,
	// which is equivalent for occupancy purposes).
	ThreadsPerBlock int

	// RegsPerThread is the register demand per thread.
	RegsPerThread int

	// SharedMemPerBlock is the shared-memory demand per block in bytes.
	SharedMemPerBlock int
}

// WarpsPerBlock returns the number of warps each thread block contains.
func (k *Kernel) WarpsPerBlock() int {
	return (k.ThreadsPerBlock + WarpSize - 1) / WarpSize
}

// Validate checks the kernel's structural invariants.
func (k *Kernel) Validate() error {
	if k.Program == nil {
		return fmt.Errorf("kernel %s: nil program", k.Name)
	}
	if err := k.Program.Validate(); err != nil {
		return fmt.Errorf("kernel %s: %w", k.Name, err)
	}
	if k.ThreadsPerBlock <= 0 || k.ThreadsPerBlock%WarpSize != 0 {
		return fmt.Errorf("kernel %s: ThreadsPerBlock %d not a positive multiple of %d",
			k.Name, k.ThreadsPerBlock, WarpSize)
	}
	if k.RegsPerThread < 0 || k.SharedMemPerBlock < 0 {
		return fmt.Errorf("kernel %s: negative resource demand", k.Name)
	}
	return nil
}

// TBParams are the per-thread-block dynamic parameters a workload model
// assigns: loop trip counts, the active-lane fraction (control-flow
// divergence), and a seed for irregular address generation.
type TBParams struct {
	Trips      []int
	ActiveFrac float64
	Seed       uint64
}

// Launch is one kernel launch: an instance of a kernel with a grid of
// thread blocks, each with its own parameters. Launches of an application
// execute strictly in sequence (all blocks of launch i retire before launch
// i+1 starts), matching the CUDA model the paper assumes.
type Launch struct {
	Kernel *Kernel
	// Index is the launch's position in the application's launch sequence.
	Index int
	// Grid optionally records the logical grid shape (CUDA gridDim). When
	// set, Grid.Count() must equal len(Params); the flat thread block ID
	// linearises it in x-major order.
	Grid Dim3
	// Params holds one entry per thread block, indexed by thread block ID;
	// thread blocks are dispatched in ID order by the greedy global
	// scheduler.
	Params []TBParams
}

// Validate checks the launch's structural invariants (kernel validity and
// grid/params consistency).
func (l *Launch) Validate() error {
	if l.Kernel == nil {
		return fmt.Errorf("launch %d: nil kernel", l.Index)
	}
	if err := l.Kernel.Validate(); err != nil {
		return fmt.Errorf("launch %d: %w", l.Index, err)
	}
	if c := l.Grid.Count(); c != 1 && c != len(l.Params) {
		return fmt.Errorf("launch %d: grid %v spans %d blocks, params have %d",
			l.Index, l.Grid, c, len(l.Params))
	}
	return nil
}

// NumBlocks returns the number of thread blocks in the launch.
func (l *Launch) NumBlocks() int { return len(l.Params) }

// Counts returns thread block tb's thread instructions, warp instructions
// and global/local memory requests (all warps of the block) from one walk
// over the kernel program. A non-nil execs receives the per-warp block
// execution counts, as in isa.Program.Count.
func (l *Launch) Counts(tb int, execs []int64) (threadInsts, warpInsts, memReqs int64) {
	p := &l.Params[tb]
	warps := int64(l.Kernel.WarpsPerBlock())
	warpInsts, memReqs = l.Kernel.Program.Count(p.Trips, p.ActiveFrac, execs)
	warpInsts *= warps
	memReqs *= warps
	af := p.ActiveFrac
	if af <= 0 || af > 1 {
		af = 1
	}
	return int64(float64(warpInsts) * WarpSize * af), warpInsts, memReqs
}

// WarpInsts returns the number of warp instructions thread block tb
// executes (all warps of the block).
func (l *Launch) WarpInsts(tb int) int64 {
	_, n, _ := l.Counts(tb, nil)
	return n
}

// ThreadInsts returns the number of thread instructions thread block tb
// executes: warp instructions scaled by the active-lane count. This is the
// "thread block size" feature of Eq. 2 and Fig. 8.
func (l *Launch) ThreadInsts(tb int) int64 {
	n, _, _ := l.Counts(tb, nil)
	return n
}

// MemRequests returns the number of global/local memory requests thread
// block tb issues (all warps).
func (l *Launch) MemRequests(tb int) int64 {
	_, _, n := l.Counts(tb, nil)
	return n
}

// TotalWarpInsts returns the launch's total warp instructions.
func (l *Launch) TotalWarpInsts() int64 {
	var n int64
	for tb := range l.Params {
		n += l.WarpInsts(tb)
	}
	return n
}

// TotalThreadInsts returns the launch's total thread instructions
// ("kernel launch size", Eq. 2).
func (l *Launch) TotalThreadInsts() int64 {
	var n int64
	for tb := range l.Params {
		n += l.ThreadInsts(tb)
	}
	return n
}

// TotalMemRequests returns the launch's total memory requests.
func (l *Launch) TotalMemRequests() int64 {
	var n int64
	for tb := range l.Params {
		n += l.MemRequests(tb)
	}
	return n
}

// App is an application: a named sequence of kernel launches.
type App struct {
	Name     string
	Launches []*Launch
}

// TotalBlocks returns the number of thread blocks across all launches
// (the "Number of Thread blocks" row of Table VI).
func (a *App) TotalBlocks() int {
	n := 0
	for _, l := range a.Launches {
		n += l.NumBlocks()
	}
	return n
}

// TotalWarpInsts returns warp instructions across all launches.
func (a *App) TotalWarpInsts() int64 {
	var n int64
	for _, l := range a.Launches {
		n += l.TotalWarpInsts()
	}
	return n
}

// Dim3 is a CUDA-style 3-component dimension. Thread blocks are identified
// by a flat ID throughout the library (the global scheduler dispatches in
// flat order); Dim3 describes the logical grid shape those IDs linearise.
type Dim3 struct {
	X, Y, Z int
}

// Count returns the number of elements the dimension spans; unset (zero)
// components count as 1.
func (d Dim3) Count() int {
	n := 1
	for _, v := range []int{d.X, d.Y, d.Z} {
		if v > 1 {
			n *= v
		}
	}
	return n
}

// Flat returns the flat block ID of grid coordinates (x, y, z) under this
// dimension, in CUDA's x-major order.
func (d Dim3) Flat(x, y, z int) int {
	dx, dy := d.X, d.Y
	if dx < 1 {
		dx = 1
	}
	if dy < 1 {
		dy = 1
	}
	return x + dx*(y+dy*z)
}

// Coords is the inverse of Flat.
func (d Dim3) Coords(flat int) (x, y, z int) {
	dx, dy := d.X, d.Y
	if dx < 1 {
		dx = 1
	}
	if dy < 1 {
		dy = 1
	}
	x = flat % dx
	y = (flat / dx) % dy
	z = flat / (dx * dy)
	return
}

// Validate checks every launch of the application.
func (a *App) Validate() error {
	for _, l := range a.Launches {
		if err := l.Validate(); err != nil {
			return fmt.Errorf("app %s: %w", a.Name, err)
		}
	}
	return nil
}
