package gpusim

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"tbpoint/internal/funcsim"
	"tbpoint/internal/kernel"
	"tbpoint/internal/trace"
	"tbpoint/internal/workloads"
)

// checkWarpsReadOneSequence holds l to the invariant both engines' barrier
// handling rests on: every warp of a block reads the same (Op, Block,
// NumReq) sequence, so no warp exits while a sibling waits at a barrier.
// Only the request addresses may differ between warps.
func checkWarpsReadOneSequence(t *testing.T, name string, l *kernel.Launch) {
	t.Helper()
	syn := trace.NewSynthetic(l)
	var first, other trace.SynthStream
	var addrs [trace.MaxRequests]uint64
	for tb := 0; tb < l.NumBlocks(); tb++ {
		for w := 1; w < l.Kernel.WarpsPerBlock(); w++ {
			syn.InitStream(&first, tb, 0)
			syn.InitStream(&other, tb, w)
			for i := 0; ; i++ {
				a, okA := first.Next(addrs[:])
				b, okB := other.Next(addrs[:])
				if a != b || okA != okB {
					t.Fatalf("%s: block %d warp %d reads %+v (%v) at event %d, warp 0 %+v (%v)",
						name, tb, w, b, okB, i, a, okA)
				}
				if !okA {
					break
				}
			}
		}
	}
}

// TestWarpsOfABlockReadOneSequence: the invariant on the first and last
// launch of each of the twelve benchmarks and on the stress generator's
// launches.
func TestWarpsOfABlockReadOneSequence(t *testing.T) {
	for _, spec := range workloads.All() {
		app := spec.Build(workloads.Config{Scale: 0.01, Seed: 3})
		checkWarpsReadOneSequence(t, spec.Name+" first", app.Launches[0])
		checkWarpsReadOneSequence(t, spec.Name+" last", app.Launches[len(app.Launches)-1])
	}
	f := func(seed int64, nb8, warps8 uint8) bool {
		checkWarpsReadOneSequence(t, "random", randomLaunch(seed, nb8, warps8))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestNaNActiveFracRunsFullyActive: a NaN active fraction is fully active at
// every layer — a NaN launch profiles, streams and simulates exactly like the
// same launch at 1.
func TestNaNActiveFracRunsFullyActive(t *testing.T) {
	build := func(af float64) *kernel.Launch {
		params := make([]kernel.TBParams, 6)
		for i := range params {
			params[i] = kernel.TBParams{Trips: []int{1 + i%3}, ActiveFrac: af, Seed: uint64(i)}
		}
		return kernel.NewLaunch(memoryKernel(), 0, params)
	}
	nan, one := build(math.NaN()), build(1)
	if !reflect.DeepEqual(funcsim.ProfileLaunch(nan), funcsim.ProfileLaunch(one)) {
		t.Error("a NaN launch profiles differently from the launch at 1")
	}
	if !reflect.DeepEqual(trace.Record(nan), trace.Record(one)) {
		t.Error("a NaN launch streams differently from the launch at 1")
	}
	sim := MustNew(smallConfig())
	if !reflect.DeepEqual(sim.RunLaunch(nan, RunOptions{}), sim.RunLaunch(one, RunOptions{})) {
		t.Error("a NaN launch simulates differently from the launch at 1")
	}
}
