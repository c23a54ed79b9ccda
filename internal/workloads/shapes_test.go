package workloads

import (
	"reflect"
	"slices"
	"testing"

	"tbpoint/internal/funcsim"
	"tbpoint/internal/isa"
	"tbpoint/internal/kernel"
	"tbpoint/internal/stats"
	"tbpoint/internal/trace"
)

// These tests tie the launch data model (a shape table and a per-block
// index) to its consumers on the twelve benchmarks: whatever works per shape
// must equal the same work done per thread block from Launch.Params.

// perBlockProfile is the reference profiler: one walk over the kernel
// program per thread block, from the block's own parameters, giving one
// counter row per block.
func perBlockProfile(l *kernel.Launch) (rows []funcsim.TBProfile, blockCounts []int64) {
	prog := l.Kernel.Program
	warps := int64(l.Kernel.WarpsPerBlock())
	rows = make([]funcsim.TBProfile, l.NumBlocks())
	blockCounts = make([]int64, len(prog.Blocks))
	for tb := range rows {
		p := l.Params(tb)
		warpInsts, memReqs := prog.Count(p.Trips, p.ActiveFrac, blockCounts)
		rows[tb] = funcsim.TBProfile{
			ThreadInsts: int64(float64(warpInsts*warps) * kernel.WarpSize * isa.EffectiveActive(p.ActiveFrac)),
			WarpInsts:   warpInsts * warps,
			MemRequests: memReqs * warps,
		}
	}
	for bi := range blockCounts {
		blockCounts[bi] *= warps * int64(len(prog.Blocks[bi].Instrs))
	}
	return rows, blockCounts
}

// ProfileLaunch, read block by block, equals the per-block reference, and
// its totals and TBSizes equal the same sums and series over the reference's
// rows.
func TestProfileMatchesPerBlockReference(t *testing.T) {
	for _, s := range All() {
		app := s.Build(Config{Scale: 0.05, Seed: 3})
		var want int64
		for li, l := range app.Launches {
			rows, counts := perBlockProfile(l)
			got := funcsim.ProfileLaunch(l)
			if got.NumBlocks() != len(rows) || !reflect.DeepEqual(got.BlockCounts, counts) {
				t.Fatalf("%s launch %d: ProfileLaunch block count or BlockCounts differ from the per-block reference", s.Name, li)
			}
			var total funcsim.TBProfile
			sizes := make([]float64, len(rows))
			for tb, r := range rows {
				if got.Block(tb) != r {
					t.Fatalf("%s launch %d block %d: ProfileLaunch %+v, per-block reference %+v", s.Name, li, tb, got.Block(tb), r)
				}
				total.ThreadInsts += r.ThreadInsts
				total.WarpInsts += r.WarpInsts
				total.MemRequests += r.MemRequests
				sizes[tb] = float64(r.ThreadInsts)
			}
			if g := (funcsim.TBProfile{ThreadInsts: got.TotalThreadInsts(), WarpInsts: got.TotalWarpInsts(),
				MemRequests: got.TotalMemRequests()}); g != total {
				t.Errorf("%s launch %d: profile totals %+v, per-block reference %+v", s.Name, li, g, total)
			}
			if !reflect.DeepEqual(got.TBSizes(), sizes) {
				t.Errorf("%s launch %d: TBSizes differ from the per-block reference", s.Name, li)
			}
			if got := l.TotalWarpInsts(); got != total.WarpInsts {
				t.Errorf("%s launch %d: TotalWarpInsts %d, per-block reference %d", s.Name, li, got, total.WarpInsts)
			}
			want += total.WarpInsts
		}
		if got := app.TotalWarpInsts(); got != want {
			t.Errorf("%s: App.TotalWarpInsts %d, per-block reference %d", s.Name, got, want)
		}
	}
}

// A launch rebuilt block by block from Params(tb) (trip counts copied) reads
// back the same parameters, is the same simulation input, and expands to the
// same recorded streams.
func TestStreamsMatchBlockByBlockRebuild(t *testing.T) {
	for _, s := range All() {
		app := s.Build(Config{Scale: 0.01, Seed: 3})
		for li, l := range app.Launches[:min(2, len(app.Launches))] {
			params := make([]kernel.TBParams, l.NumBlocks())
			for tb := range params {
				params[tb] = l.Params(tb)
				params[tb].Trips = slices.Clone(params[tb].Trips)
			}
			rebuilt := kernel.NewLaunch(l.Kernel, l.Index, params)
			for tb, want := range params {
				if got := rebuilt.Params(tb); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s launch %d block %d: rebuilt %+v, want %+v", s.Name, li, tb, got, want)
				}
			}
			if !trace.SameInput(l, rebuilt) {
				t.Errorf("%s launch %d: rebuilt launch is not the same input", s.Name, li)
			}
			if !reflect.DeepEqual(trace.Record(l), trace.Record(rebuilt)) {
				t.Errorf("%s launch %d: rebuilt launch records different streams", s.Name, li)
			}
		}
	}
}

// The Eq. 2 feature is computed without materialising the size series and
// must be the same float, not a close one: clusterings are built on it.
func TestTBSizeCoVIsExactlyStatsCoV(t *testing.T) {
	for _, s := range All() {
		app := s.Build(Config{Scale: 0.05, Seed: 3})
		for li, lp := range funcsim.ProfileApp(app) {
			if got, want := lp.TBSizeCoV(), stats.CoV(lp.TBSizes()); got != want {
				t.Errorf("%s launch %d: TBSizeCoV %v != stats.CoV(TBSizes()) %v", s.Name, li, got, want)
			}
		}
	}
	for _, n := range []int{0, 1} { // fewer than two blocks: no variation
		lp := &funcsim.LaunchProfile{Shapes: make([]funcsim.TBProfile, 1), ShapeOf: make([]uint32, n)}
		if got, want := lp.TBSizeCoV(), stats.CoV(lp.TBSizes()); got != want {
			t.Errorf("%d blocks: TBSizeCoV %v != stats.CoV %v", n, got, want)
		}
	}
}

// The shape tables are what the model says they are: the regular benchmarks
// hold a handful of shapes per launch however many blocks they have.
func TestRegularBenchmarksShareShapes(t *testing.T) {
	for name, most := range map[string]int{"conv": 2, "lbm": 1, "cfd": 1, "kmeans": 1, "black": 1, "stream": 1, "hotspot": 2} {
		s, _ := ByName(name)
		for li, l := range s.Build(Config{Scale: 1}).Launches {
			if len(l.Shapes) > most {
				t.Errorf("%s launch %d: %d shapes, want at most %d", name, li, len(l.Shapes), most)
			}
		}
	}
}
