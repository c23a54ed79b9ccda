package trace

import (
	"math"
	"slices"
	"testing"
	"unsafe"

	"tbpoint/internal/isa"
	"tbpoint/internal/kernel"
	"tbpoint/internal/stats"
)

// blockWalkEvents expands warp w of block tb the plain way, as the oracle
// SynthStream is held to: blocks in order, each loop body repeated its trip
// count (trips[param], 1 when missing, none when not positive) with the
// iteration number, the request count from isa.RequestsPerAccess, and every
// address computed from scratch.
func blockWalkEvents(l *kernel.Launch, tb, w int) []RecEvent {
	addr := DefaultAddrConfig()
	p, sh := l.Kernel.Program, l.Shape(tb)
	af := isa.EffectiveActive(sh.ActiveFrac)
	var rng stats.RNG
	rng.Seed(l.Seeds[tb] ^ (uint64(w)+1)*0x9e3779b97f4a7c15)
	var out []RecEvent
	emit := func(b, iter int) {
		for _, in := range p.Blocks[b].Instrs {
			re := RecEvent{Event: Event{Op: in.Op, Block: uint16(b)}}
			if in.Op.IsMem() {
				n := isa.RequestsPerAccess(in.Coalesce, af)
				re.NumReq = uint8(n)
				for i := 0; i < n; i++ {
					a := regionBase(in.Region) + uint64(tb)*addr.TBFootprintB + uint64(w)*addr.WarpFootprintB +
						uint64(iter)*uint64(int64(in.StrideB)) + uint64(i)*LineSize
					if in.Random {
						a = regionBase(in.Region) + rng.Uint64()%(addr.RandFootprintB/LineSize)*LineSize
					}
					re.Addrs = append(re.Addrs, a&^(LineSize-1))
				}
			}
			out = append(out, re)
		}
	}
	end := len(p.Blocks)
	b := 0
	for _, lp := range slices.Concat(p.Loops, []isa.Loop{{Begin: end, End: end}}) {
		for ; b < lp.Begin; b++ {
			emit(b, 0)
		}
		trip := 1
		if lp.TripParam < len(sh.Trips) {
			trip = sh.Trips[lp.TripParam]
		}
		for it := 0; it < trip; it++ {
			for lb := lp.Begin; lb < lp.End; lb++ {
				emit(lb, it)
			}
		}
		b = lp.End
	}
	return out
}

// TestStreamMatchesBlockWalk holds every warp stream of a launch to the
// block-walk expansion: same events, same request addresses, same end. The
// program mixes straight runs, single- and multi-block loops, strided
// (forward, backward, zero) and Random accesses and coalescing degrees 0 to
// 32; the blocks cover active fractions 1, 0.37 and NaN and trip counts
// positive, zero, negative and missing.
func TestStreamMatchesBlockWalk(t *testing.T) {
	prog := isa.NewBuilder("walk").
		Block(isa.IALU(), isa.Load(0, 1, 128)).
		Loop(0,
			isa.Block{Instrs: []isa.Instr{isa.Load(7, 2, -384), isa.FALU()}},
			isa.Block{Instrs: []isa.Instr{isa.Load(32, 3, 0).AsIrregular(), isa.Branch()}},
		).
		Block(isa.Shared(), isa.Store(4, 1, 256)).
		LoopBlocks(1, isa.Store(2, 4, 0).AsIrregular(), isa.Load(32, 5, 4096), isa.Branch()).
		LoopBlocks(2, isa.Barrier(), isa.SFU()).
		EndBlock(isa.Store(1, 2, 128)).
		Build()
	k := &kernel.Kernel{Name: "walk", Program: prog, ThreadsPerBlock: 64}
	trips := [][]int{{3, 2, 1}, {0, 4, 2}, {2, -1, 0}, {5}, nil, {1, 1, -3}}
	afs := []float64{1, 0.37, math.NaN()}
	var params []kernel.TBParams
	for i, tr := range trips {
		for j, af := range afs {
			params = append(params, kernel.TBParams{Trips: tr, ActiveFrac: af, Seed: uint64(i*len(afs)+j) * 977})
		}
	}
	l := kernel.NewLaunch(k, 0, params)
	syn := NewSynthetic(l)
	var addrs [MaxRequests]uint64
	for tb := 0; tb < l.NumBlocks(); tb++ {
		for w := 0; w < k.WarpsPerBlock(); w++ {
			st := syn.WarpStream(tb, w)
			for i, want := range blockWalkEvents(l, tb, w) {
				ev, ok := st.Next(addrs[:])
				if !ok || ev != want.Event || !slices.Equal(addrs[:ev.NumReq], want.Addrs) {
					t.Fatalf("block %d warp %d event %d: stream %+v %v (%v), block walk %+v",
						tb, w, i, ev, addrs[:ev.NumReq], ok, want)
				}
			}
			if ev, ok := st.Next(addrs[:]); ok {
				t.Fatalf("block %d warp %d: stream continues past the block walk with %+v", tb, w, ev)
			}
		}
	}
}

// TestSynthStreamSize pins the per-warp stream state: the simulator loads
// one per issued instruction, embedded in its warp state, so growing it
// costs every instruction a wider first touch.
func TestSynthStreamSize(t *testing.T) {
	if s := unsafe.Sizeof(SynthStream{}); s > 80 {
		t.Errorf("SynthStream is %d bytes, want at most 80", s)
	}
}
