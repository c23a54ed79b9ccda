package kernel

import (
	"testing"
	"testing/quick"

	"tbpoint/internal/isa"
)

func testProgram() *isa.Program {
	return isa.NewBuilder("t").
		Block(isa.IALU()).
		LoopBlocks(0, isa.Load(4, 0, 128), isa.FALU(), isa.Branch()).
		EndBlock(isa.Store(1, 1, 128)).
		Build()
}

func testKernel() *Kernel {
	return &Kernel{
		Name:            "t",
		Program:         testProgram(),
		ThreadsPerBlock: 128,
		RegsPerThread:   20,
	}
}

func TestKernelValidate(t *testing.T) {
	k := testKernel()
	if err := k.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	bad := *k
	bad.ThreadsPerBlock = 100 // not a warp multiple
	if bad.Validate() == nil {
		t.Error("accepted non-warp-multiple block size")
	}
	bad = *k
	bad.Program = nil
	if bad.Validate() == nil {
		t.Error("accepted nil program")
	}
	bad = *k
	bad.RegsPerThread = -1
	if bad.Validate() == nil {
		t.Error("accepted negative registers")
	}
}

func TestWarpsPerBlock(t *testing.T) {
	k := testKernel()
	if got := k.WarpsPerBlock(); got != 4 {
		t.Errorf("WarpsPerBlock = %d, want 4", got)
	}
}

func newLaunch(k *Kernel, trips []int, af float64, n int) *Launch {
	params := make([]TBParams, n)
	for i := range params {
		params[i] = TBParams{Trips: append([]int(nil), trips...), ActiveFrac: af}
	}
	return NewLaunch(k, 0, params)
}

func TestLaunchCounters(t *testing.T) {
	k := testKernel()
	l := newLaunch(k, []int{2}, 1.0, 3)
	// Per warp: 1 + 2*3 + 2 = 9 insts; 4 warps -> 36 per TB.
	if got := l.WarpInsts(0); got != 36 {
		t.Errorf("WarpInsts = %d, want 36", got)
	}
	if got := l.ThreadInsts(0); got != 36*32 {
		t.Errorf("ThreadInsts = %d, want %d", got, 36*32)
	}
	// Per warp mem requests: 2 iters * 4 (LDG c=4) + 1 (STG) = 9; 4 warps = 36.
	if got := l.MemRequests(0); got != 36 {
		t.Errorf("MemRequests = %d, want 36", got)
	}
	if got := l.TotalWarpInsts(); got != 3*36 {
		t.Errorf("TotalWarpInsts = %d, want %d", got, 3*36)
	}
	if got := l.TotalThreadInsts(); got != 3*36*32 {
		t.Errorf("TotalThreadInsts = %d", got)
	}
	if got := l.TotalMemRequests(); got != 3*36 {
		t.Errorf("TotalMemRequests = %d", got)
	}
}

func TestThreadInstsDivergence(t *testing.T) {
	k := testKernel()
	l := newLaunch(k, []int{2}, 0.5, 1)
	// Same warp insts, half the thread insts.
	if got := l.WarpInsts(0); got != 36 {
		t.Errorf("WarpInsts = %d, want 36", got)
	}
	if got := l.ThreadInsts(0); got != 36*16 {
		t.Errorf("ThreadInsts = %d, want %d", got, 36*16)
	}
	// Out-of-range ActiveFrac behaves as fully active.
	l2 := newLaunch(k, []int{2}, -1, 1)
	if got := l2.ThreadInsts(0); got != 36*32 {
		t.Errorf("ThreadInsts(af=-1) = %d, want %d", got, 36*32)
	}
}

func TestAppTotals(t *testing.T) {
	k := testKernel()
	app := &App{Name: "app", Launches: []*Launch{
		newLaunch(k, []int{1}, 1, 2),
		newLaunch(k, []int{3}, 1, 5),
	}}
	if got := app.TotalBlocks(); got != 7 {
		t.Errorf("TotalBlocks = %d, want 7", got)
	}
	want := app.Launches[0].TotalWarpInsts() + app.Launches[1].TotalWarpInsts()
	if got := app.TotalWarpInsts(); got != want {
		t.Errorf("TotalWarpInsts = %d, want %d", got, want)
	}
}

func TestBlocksPerSMLimits(t *testing.T) {
	lim := DefaultSMLimits()
	k := testKernel() // 128 threads, 4 warps, 20 regs/thread

	// threads: 1536/128 = 12; warps: 48/4 = 12; blocks: 8;
	// regs: 32768/(20*128) = 12 -> limited by MaxBlocks = 8.
	if got := lim.BlocksPerSM(k); got != 8 {
		t.Errorf("BlocksPerSM = %d, want 8", got)
	}

	k2 := *k
	k2.ThreadsPerBlock = 512 // threads: 3; warps: 48/16 = 3; regs: 3
	if got := lim.BlocksPerSM(&k2); got != 3 {
		t.Errorf("BlocksPerSM(512) = %d, want 3", got)
	}

	k3 := *k
	k3.SharedMemPerBlock = 20 << 10 // smem: 48K/20K = 2
	if got := lim.BlocksPerSM(&k3); got != 2 {
		t.Errorf("BlocksPerSM(smem) = %d, want 2", got)
	}

	k4 := *k
	k4.RegsPerThread = 64 // regs: 32768/8192 = 4
	if got := lim.BlocksPerSM(&k4); got != 4 {
		t.Errorf("BlocksPerSM(regs) = %d, want 4", got)
	}
}

func TestBlocksPerSMAtLeastOne(t *testing.T) {
	lim := DefaultSMLimits()
	k := testKernel()
	k.SharedMemPerBlock = 1 << 20 // over-subscribes shared memory
	if got := lim.BlocksPerSM(k); got != 1 {
		t.Errorf("BlocksPerSM = %d, want 1 (floor)", got)
	}
}

func TestMaxWarpsKnob(t *testing.T) {
	lim := DefaultSMLimits()
	k := testKernel() // 4 warps per block
	lim.MaxWarps = 16
	if got := lim.BlocksPerSM(k); got != 4 {
		t.Errorf("BlocksPerSM(W=16) = %d, want 4", got)
	}
	lim.MaxWarps = 64
	lim.MaxBlocks = 100
	lim.MaxThreads = 64 * 32
	// warps: 64/4=16, threads: 2048/128=16, regs: 12 -> 12
	if got := lim.BlocksPerSM(k); got != 12 {
		t.Errorf("BlocksPerSM(W=64) = %d, want 12", got)
	}
}

func TestSystemOccupancy(t *testing.T) {
	lim := DefaultSMLimits()
	k := testKernel()
	if got := lim.SystemOccupancy(k, 14); got != 8*14 {
		t.Errorf("SystemOccupancy = %d, want %d", got, 8*14)
	}
	if got := lim.SystemOccupancy(k, 0); got != 8 {
		t.Errorf("SystemOccupancy(0 SMs) = %d, want 8 (clamped to 1 SM)", got)
	}
}

// Property: occupancy is monotone non-increasing in per-block demand and
// always at least 1.
func TestOccupancyMonotoneProperty(t *testing.T) {
	lim := DefaultSMLimits()
	f := func(warps8 uint8, regs8 uint8) bool {
		warps := 1 + int(warps8%16)
		regs := int(regs8 % 64)
		k := &Kernel{
			Name:            "p",
			Program:         testProgram(),
			ThreadsPerBlock: warps * WarpSize,
			RegsPerThread:   regs,
		}
		occ := lim.BlocksPerSM(k)
		if occ < 1 {
			return false
		}
		k2 := *k
		k2.ThreadsPerBlock += WarpSize
		k2.RegsPerThread = regs + 1
		return lim.BlocksPerSM(&k2) <= occ
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSMLimitsString(t *testing.T) {
	if DefaultSMLimits().String() == "" {
		t.Error("String() empty")
	}
}

func TestLaunchValidateGrid(t *testing.T) {
	k := testKernel()
	l := newLaunch(k, []int{2}, 1, 12)
	if err := l.Validate(); err != nil {
		t.Errorf("flat launch: %v", err)
	}
	l.Kernel = nil
	if err := l.Validate(); err == nil {
		t.Error("nil kernel accepted")
	}
}

func TestAppValidate(t *testing.T) {
	k := testKernel()
	app := &App{Name: "ok", Launches: []*Launch{newLaunch(k, []int{1}, 1, 3)}}
	if err := app.Validate(); err != nil {
		t.Errorf("valid app rejected: %v", err)
	}
	app.Launches = append(app.Launches, &Launch{})
	if app.Validate() == nil {
		t.Error("app with nil-kernel launch accepted")
	}
}
