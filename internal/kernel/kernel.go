// Package kernel models the CUDA-style execution hierarchy the paper
// assumes: kernels, kernel launches, thread blocks and warps, plus the
// occupancy calculation that determines how many thread blocks run
// concurrently ("SM occupancy" and "system occupancy" in the paper's
// terminology, §II-A).
package kernel

import (
	"fmt"
	"math"
	"slices"

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
// divergence), and a seed for irregular address generation. It is the value
// callers hand to NewLaunch or LaunchBuilder.Add and get back from
// Launch.Params; a launch does not store one per block.
type TBParams struct {
	Trips      []int
	ActiveFrac float64
	Seed       uint64
}

// TBShape is the part of TBParams thread blocks have in common: everything
// but the seed. The thread blocks of a large launch are overwhelmingly the
// same block repeated, so a launch stores each distinct shape once.
type TBShape struct {
	Trips      []int
	ActiveFrac float64
}

// Launch is one kernel launch: an instance of a kernel with a grid of
// thread blocks, each with its own parameters. Launches of an application
// execute strictly in sequence (all blocks of launch i retire before launch
// i+1 starts), matching the CUDA model the paper assumes.
//
// Build one with NewLaunch or a LaunchBuilder. Thread blocks are indexed by
// thread block ID and dispatched in ID order by the greedy global scheduler.
type Launch struct {
	Kernel *Kernel
	// Index is the launch's position in the application's launch sequence.
	Index int
	// Shapes holds each distinct (Trips, ActiveFrac) of the launch once, in
	// first-seen order. Two shapes are the same only if their trip counts
	// are equal element-wise and their active fractions are the same bits.
	// Shapes and their Trips are shared by every block that has them and by
	// concurrent readers: read-only once the launch is built.
	Shapes []TBShape
	// ShapeOf and Seeds hold one entry per thread block: its index into
	// Shapes and its seed.
	ShapeOf []uint32
	Seeds   []uint64
}

// NewLaunch returns launch idx of kernel k with one thread block per entry
// of params. It keeps the Trips slices it is handed (see LaunchBuilder.Add).
func NewLaunch(k *Kernel, idx int, params []TBParams) *Launch {
	b := NewLaunchBuilder(k, idx, len(params))
	for _, p := range params {
		b.Add(p)
	}
	return b.Launch()
}

// LaunchBuilder assembles a launch one thread block at a time, interning
// each block's shape. A hash only picks where the lookup starts; whether two
// shapes are the same is decided by comparing them, so a block reads back
// bit-for-bit what was added.
type LaunchBuilder struct {
	l Launch
	// slots is an open-addressing table (linear probing, twice
	// cap(l.Shapes) long) of 1 + shape index; 0 marks a free slot.
	slots []uint32
	// hashMask is all ones; tests clear bits to force shapes to collide.
	hashMask uint64
}

// NewLaunchBuilder starts launch idx of kernel k; n is the expected number
// of thread blocks (a capacity hint).
func NewLaunchBuilder(k *Kernel, idx, n int) *LaunchBuilder {
	return &LaunchBuilder{
		l: Launch{Kernel: k, Index: idx,
			ShapeOf: make([]uint32, 0, n), Seeds: make([]uint64, 0, n)},
		hashMask: ^uint64(0),
	}
}

// Add appends the next thread block. It costs one table lookup and, when
// the shape is new, keeps p.Trips without copying: the caller must not write
// to it afterwards.
func (b *LaunchBuilder) Add(p TBParams) {
	l := &b.l
	af := math.Float64bits(p.ActiveFrac)
	s, ok := uint32(0), false
	// Runs of one shape are the common case: try the previous block's first.
	if n := len(l.ShapeOf); n > 0 {
		s = l.ShapeOf[n-1]
		ok = l.Shapes[s].is(p.Trips, af)
	}
	if !ok {
		if len(l.Shapes) == cap(l.Shapes) {
			b.grow()
		}
		i := b.find(p.Trips, af)
		if b.slots[i] == 0 {
			l.Shapes = append(l.Shapes, TBShape{Trips: p.Trips, ActiveFrac: p.ActiveFrac})
			b.slots[i] = uint32(len(l.Shapes))
		}
		s = b.slots[i] - 1
	}
	l.ShapeOf = append(l.ShapeOf, s)
	l.Seeds = append(l.Seeds, p.Seed)
}

// find returns the slot that holds shape (trips, afBits), or the free slot
// where it belongs.
func (b *LaunchBuilder) find(trips []int, afBits uint64) int {
	const offset, prime = 14695981039346656037, 1099511628211 // FNV-1a over 64-bit words
	h := (offset ^ afBits) * prime
	for _, t := range trips {
		h = (h ^ uint64(t)) * prime
	}
	h &= b.hashMask
	i := int(h >> 32 * uint64(len(b.slots)) >> 32) // the hash's high half, scaled to the table
	for b.slots[i] != 0 && !b.l.Shapes[b.slots[i]-1].is(trips, afBits) {
		if i++; i == len(b.slots) {
			i = 0
		}
	}
	return i
}

// grow makes room for more shapes and rebuilds the table around them. The
// new capacity extrapolates the shapes-per-block rate seen so far to the
// expected block count (ShapeOf's capacity), so an all-distinct launch sizes
// its table once and a regular one never outgrows the first.
func (b *LaunchBuilder) grow() {
	l := &b.l
	c := max(16, 2*len(l.Shapes))
	if seen := len(l.ShapeOf); seen > 0 {
		c = max(c, len(l.Shapes)*cap(l.ShapeOf)/seen)
	}
	l.Shapes = slices.Grow(l.Shapes, c-len(l.Shapes))
	b.slots = make([]uint32, 2*cap(l.Shapes))
	for s, sh := range l.Shapes {
		b.slots[b.find(sh.Trips, math.Float64bits(sh.ActiveFrac))] = uint32(s) + 1
	}
}

// is reports whether s is exactly the shape (trips, afBits).
func (s *TBShape) is(trips []int, afBits uint64) bool {
	return math.Float64bits(s.ActiveFrac) == afBits && slices.Equal(s.Trips, trips)
}

// Launch returns the launch built so far (a copy, so that it does not keep
// the lookup table alive); the builder must not be used afterwards.
func (b *LaunchBuilder) Launch() *Launch {
	l := b.l
	return &l
}

// Validate checks the launch's structural invariants (kernel validity,
// per-block tables and grid consistency).
func (l *Launch) Validate() error {
	if l.Kernel == nil {
		return fmt.Errorf("launch %d: nil kernel", l.Index)
	}
	if err := l.Kernel.Validate(); err != nil {
		return fmt.Errorf("launch %d: %w", l.Index, err)
	}
	if len(l.Seeds) != len(l.ShapeOf) {
		return fmt.Errorf("launch %d: %d seeds for %d blocks", l.Index, len(l.Seeds), len(l.ShapeOf))
	}
	for tb, s := range l.ShapeOf {
		if int(s) >= len(l.Shapes) {
			return fmt.Errorf("launch %d: block %d has shape %d of %d", l.Index, tb, s, len(l.Shapes))
		}
	}
	return nil
}

// NumBlocks returns the number of thread blocks in the launch.
func (l *Launch) NumBlocks() int { return len(l.ShapeOf) }

// Shape returns thread block tb's shape. Its Trips are shared: read-only.
func (l *Launch) Shape(tb int) TBShape { return l.Shapes[l.ShapeOf[tb]] }

// Params returns thread block tb's parameters, bit-for-bit as they were
// added. Trips aliases the shape's: read-only.
func (l *Launch) Params(tb int) TBParams {
	s := l.Shape(tb)
	return TBParams{Trips: s.Trips, ActiveFrac: s.ActiveFrac, Seed: l.Seeds[tb]}
}

// ShapeCounts returns the thread instructions, warp instructions and
// global/local memory requests (all warps of the block) of one thread block
// of shape s, from one walk over the kernel program. A non-nil execs
// receives the per-warp block execution counts, as in isa.Program.Count.
func (l *Launch) ShapeCounts(s int, execs []int64) (threadInsts, warpInsts, memReqs int64) {
	sh := &l.Shapes[s]
	warps := int64(l.Kernel.WarpsPerBlock())
	warpInsts, memReqs = l.Kernel.Program.Count(sh.Trips, sh.ActiveFrac, execs)
	warpInsts *= warps
	memReqs *= warps
	return int64(float64(warpInsts) * WarpSize * isa.EffectiveActive(sh.ActiveFrac)), warpInsts, memReqs
}

// ShapeBlocks returns how many thread blocks have each shape, indexed like
// Shapes.
func (l *Launch) ShapeBlocks() []int64 {
	n := make([]int64, len(l.Shapes))
	for _, s := range l.ShapeOf {
		n[s]++
	}
	return n
}

// WarpInsts returns the number of warp instructions thread block tb
// executes (all warps of the block).
func (l *Launch) WarpInsts(tb int) int64 {
	_, n, _ := l.ShapeCounts(int(l.ShapeOf[tb]), nil)
	return n
}

// ThreadInsts returns the number of thread instructions thread block tb
// executes: warp instructions scaled by the active-lane count. This is the
// "thread block size" feature of Eq. 2 and Fig. 8.
func (l *Launch) ThreadInsts(tb int) int64 {
	n, _, _ := l.ShapeCounts(int(l.ShapeOf[tb]), nil)
	return n
}

// MemRequests returns the number of global/local memory requests thread
// block tb issues (all warps).
func (l *Launch) MemRequests(tb int) int64 {
	_, _, n := l.ShapeCounts(int(l.ShapeOf[tb]), nil)
	return n
}

// totals walks the program once per shape and weighs each shape by the
// number of blocks that have it.
func (l *Launch) totals() (threadInsts, warpInsts, memReqs int64) {
	for s, n := range l.ShapeBlocks() {
		t, w, m := l.ShapeCounts(s, nil)
		threadInsts += n * t
		warpInsts += n * w
		memReqs += n * m
	}
	return
}

// TotalWarpInsts returns the launch's total warp instructions.
func (l *Launch) TotalWarpInsts() int64 {
	_, n, _ := l.totals()
	return n
}

// TotalThreadInsts returns the launch's total thread instructions
// ("kernel launch size", Eq. 2).
func (l *Launch) TotalThreadInsts() int64 {
	n, _, _ := l.totals()
	return n
}

// TotalMemRequests returns the launch's total memory requests.
func (l *Launch) TotalMemRequests() int64 {
	_, _, n := l.totals()
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

// Validate checks every launch of the application.
func (a *App) Validate() error {
	for _, l := range a.Launches {
		if err := l.Validate(); err != nil {
			return fmt.Errorf("app %s: %w", a.Name, err)
		}
	}
	return nil
}
