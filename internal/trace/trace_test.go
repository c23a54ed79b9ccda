package trace

import (
	"slices"
	"testing"

	"tbpoint/internal/isa"
	"tbpoint/internal/kernel"
)

func testLaunch(nBlocks int) *kernel.Launch {
	prog := isa.NewBuilder("t").
		Block(isa.IALU(), isa.IALU()).
		LoopBlocks(0, isa.Load(4, 1, 128), isa.FALU(), isa.Branch()).
		EndBlock(isa.Store(1, 2, 0)).
		Build()
	k := &kernel.Kernel{Name: "t", Program: prog, ThreadsPerBlock: 64}
	params := make([]kernel.TBParams, nBlocks)
	for i := range params {
		params[i] = kernel.TBParams{Trips: []int{2 + i%3}, ActiveFrac: 1, Seed: uint64(i)}
	}
	return kernel.NewLaunch(k, 0, params)
}

func irregularLaunch(nBlocks int) *kernel.Launch {
	prog := isa.NewBuilder("irr").
		Block(isa.IALU()).
		LoopBlocks(0, isa.Load(8, 1, 0).AsIrregular(), isa.Branch()).
		EndBlock().
		Build()
	k := &kernel.Kernel{Name: "irr", Program: prog, ThreadsPerBlock: 32}
	params := make([]kernel.TBParams, nBlocks)
	for i := range params {
		params[i] = kernel.TBParams{Trips: []int{4}, ActiveFrac: 1, Seed: uint64(i) * 7}
	}
	return kernel.NewLaunch(k, 0, params)
}

// drain walks every warp stream of l and counts its events and requests.
func drain(l *kernel.Launch) (events int64, memReqs int64) {
	syn := NewSynthetic(l)
	var addrs [MaxRequests]uint64
	for tb := 0; tb < l.NumBlocks(); tb++ {
		for w := 0; w < l.Kernel.WarpsPerBlock(); w++ {
			st := syn.WarpStream(tb, w)
			for {
				ev, ok := st.Next(addrs[:])
				if !ok {
					break
				}
				events++
				memReqs += int64(ev.NumReq)
			}
		}
	}
	return
}

func TestSyntheticMatchesStaticCounts(t *testing.T) {
	l := testLaunch(5)
	events, memReqs := drain(l)
	var wantEvents, wantReqs int64
	for tb := 0; tb < l.NumBlocks(); tb++ {
		wantEvents += l.WarpInsts(tb)
		wantReqs += l.MemRequests(tb)
	}
	if events != wantEvents {
		t.Errorf("events = %d, want %d", events, wantEvents)
	}
	if memReqs != wantReqs {
		t.Errorf("memReqs = %d, want %d", memReqs, wantReqs)
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	l := irregularLaunch(3)
	collect := func() []uint64 {
		var out []uint64
		var addrs [MaxRequests]uint64
		p := NewSynthetic(l)
		for tb := 0; tb < l.NumBlocks(); tb++ {
			st := p.WarpStream(tb, 0)
			for {
				ev, ok := st.Next(addrs[:])
				if !ok {
					break
				}
				out = append(out, addrs[:ev.NumReq]...)
			}
		}
		return out
	}
	a, b := collect(), collect()
	if len(a) == 0 {
		t.Fatal("no addresses collected")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("address %d differs between identical expansions", i)
		}
	}
}

func TestSyntheticAddressesLineAligned(t *testing.T) {
	for _, l := range []*kernel.Launch{testLaunch(3), irregularLaunch(3)} {
		p := NewSynthetic(l)
		var addrs [MaxRequests]uint64
		for tb := 0; tb < l.NumBlocks(); tb++ {
			for w := 0; w < l.Kernel.WarpsPerBlock(); w++ {
				st := p.WarpStream(tb, w)
				for {
					ev, ok := st.Next(addrs[:])
					if !ok {
						break
					}
					for _, a := range addrs[:ev.NumReq] {
						if a%LineSize != 0 {
							t.Fatalf("unaligned address %#x", a)
						}
					}
				}
			}
		}
	}
}

func TestSyntheticBlocksTouchDistinctLines(t *testing.T) {
	l := testLaunch(2)
	p := NewSynthetic(l)
	lines := func(tb int) map[uint64]bool {
		m := map[uint64]bool{}
		var addrs [MaxRequests]uint64
		for w := 0; w < l.Kernel.WarpsPerBlock(); w++ {
			st := p.WarpStream(tb, w)
			for {
				ev, ok := st.Next(addrs[:])
				if !ok {
					break
				}
				for _, a := range addrs[:ev.NumReq] {
					m[a] = true
				}
			}
		}
		return m
	}
	l0, l1 := lines(0), lines(1)
	for a := range l0 {
		if l1[a] {
			t.Fatalf("blocks 0 and 1 share strided line %#x", a)
		}
	}
}

// TestRecordRoundTrip: Record keeps every event and request of the streams
// it materialises, addresses included, so comparing records compares
// streams.
func TestRecordRoundTrip(t *testing.T) {
	for _, l := range []*kernel.Launch{testLaunch(4), irregularLaunch(3)} {
		rec := Record(l)
		wpb := l.Kernel.WarpsPerBlock()
		if len(rec) != l.NumBlocks()*wpb {
			t.Fatalf("%d recorded streams, want %d", len(rec), l.NumBlocks()*wpb)
		}
		syn := NewSynthetic(l)
		var addrs [MaxRequests]uint64
		var events, memReqs int64
		for i, evs := range rec {
			st := syn.WarpStream(i/wpb, i%wpb)
			for _, re := range evs {
				ev, ok := st.Next(addrs[:])
				if !ok || ev != re.Event || !slices.Equal(addrs[:ev.NumReq], re.Addrs) {
					t.Fatalf("stream %d: recorded %+v, stream %+v (%v)", i, re, ev, ok)
				}
				events++
				memReqs += int64(len(re.Addrs))
			}
			if _, ok := st.Next(addrs[:]); ok {
				t.Fatalf("stream %d: record ends before the stream", i)
			}
		}
		if e, m := drain(l); e != events || m != memReqs {
			t.Errorf("recorded counts (%d,%d) != stream counts (%d,%d)", events, memReqs, e, m)
		}
	}
}
