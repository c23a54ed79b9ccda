package trace

import (
	"bytes"
	"testing"
	"testing/quick"

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

func drain(p Provider) (events int64, memReqs int64) {
	var addrs [MaxRequests]uint64
	for tb := 0; tb < p.NumBlocks(); tb++ {
		for w := 0; w < p.WarpsPerBlock(); w++ {
			st := p.WarpStream(tb, w)
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
	p := NewSynthetic(l)
	events, memReqs := drain(p)
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
		for tb := 0; tb < p.NumBlocks(); tb++ {
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
		for tb := 0; tb < p.NumBlocks(); tb++ {
			for w := 0; w < p.WarpsPerBlock(); w++ {
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
		for w := 0; w < p.WarpsPerBlock(); w++ {
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

func TestRecordRoundTrip(t *testing.T) {
	l := testLaunch(4)
	syn := NewSynthetic(l)
	rec := Record(syn)
	if rec.NumBlocks() != syn.NumBlocks() || rec.WarpsPerBlock() != syn.WarpsPerBlock() {
		t.Fatalf("recorded shape mismatch")
	}
	e1, m1 := drain(syn)
	e2, m2 := drain(rec)
	if e1 != e2 || m1 != m2 {
		t.Errorf("recorded counts (%d,%d) != synthetic (%d,%d)", e2, m2, e1, m1)
	}
}

func TestFileRoundTrip(t *testing.T) {
	l := testLaunch(4)
	syn := NewSynthetic(l)
	var buf bytes.Buffer
	if err := Write(&buf, syn); err != nil {
		t.Fatalf("Write: %v", err)
	}
	rec, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	want := Record(syn)
	if len(rec.Events) != len(want.Events) {
		t.Fatalf("stream count %d, want %d", len(rec.Events), len(want.Events))
	}
	for s := range want.Events {
		if len(rec.Events[s]) != len(want.Events[s]) {
			t.Fatalf("stream %d: %d events, want %d", s, len(rec.Events[s]), len(want.Events[s]))
		}
		for e := range want.Events[s] {
			g, w := rec.Events[s][e], want.Events[s][e]
			if g.Event != w.Event {
				t.Fatalf("stream %d event %d: %+v != %+v", s, e, g.Event, w.Event)
			}
			for i := range w.Addrs {
				if g.Addrs[i] != w.Addrs[i] {
					t.Fatalf("stream %d event %d addr %d: %#x != %#x", s, e, i, g.Addrs[i], w.Addrs[i])
				}
			}
		}
	}
}

func TestFileRoundTripIrregular(t *testing.T) {
	l := irregularLaunch(3)
	var buf bytes.Buffer
	if err := Write(&buf, NewSynthetic(l)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	rec, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	e1, m1 := drain(NewSynthetic(l))
	e2, m2 := drain(rec)
	if e1 != e2 || m1 != m2 {
		t.Errorf("file round trip lost events: (%d,%d) != (%d,%d)", e2, m2, e1, m1)
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Error("accepted bad magic")
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	l := testLaunch(2)
	var buf bytes.Buffer
	if err := Write(&buf, NewSynthetic(l)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{4, 9, len(data) / 2, len(data) - 2} {
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("accepted trace truncated at %d", cut)
		}
	}
}

func TestReadRejectsCorrupted(t *testing.T) {
	l := testLaunch(2)
	var buf bytes.Buffer
	if err := Write(&buf, NewSynthetic(l)); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	data[len(data)/2] ^= 0xff
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Error("accepted corrupted trace (checksum should fail)")
	}
}

func TestZigzagRoundTrip(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEmptyProviderRoundTrip(t *testing.T) {
	empty := &Recorded{Warps: 2, Events: nil}
	var buf bytes.Buffer
	if err := Write(&buf, empty); err != nil {
		t.Fatalf("Write empty: %v", err)
	}
	rec, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read empty: %v", err)
	}
	if rec.NumBlocks() != 0 {
		t.Errorf("NumBlocks = %d, want 0", rec.NumBlocks())
	}
}

func TestDefaultAddrConfig(t *testing.T) {
	c := DefaultAddrConfig()
	if c.TBFootprintB == 0 || c.WarpFootprintB == 0 || c.RandFootprintB == 0 {
		t.Error("zero defaults")
	}
}

func TestGzipRoundTrip(t *testing.T) {
	l := testLaunch(4)
	var plain, packed bytes.Buffer
	if err := Write(&plain, NewSynthetic(l)); err != nil {
		t.Fatal(err)
	}
	if err := WriteGzip(&packed, NewSynthetic(l)); err != nil {
		t.Fatal(err)
	}
	if packed.Len() >= plain.Len() {
		t.Errorf("gzip trace %d bytes not smaller than plain %d", packed.Len(), plain.Len())
	}
	rec, err := Read(&packed)
	if err != nil {
		t.Fatalf("Read(gzip): %v", err)
	}
	want := Record(NewSynthetic(l))
	if len(rec.Events) != len(want.Events) {
		t.Fatalf("stream count mismatch")
	}
	e1, m1 := drain(rec)
	e2, m2 := drain(want)
	if e1 != e2 || m1 != m2 {
		t.Error("gzip round trip lost events")
	}
}

func TestGzipCorruptionDetected(t *testing.T) {
	l := testLaunch(2)
	var buf bytes.Buffer
	if err := WriteGzip(&buf, NewSynthetic(l)); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	data[len(data)/2] ^= 0xff
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Error("corrupted gzip trace accepted")
	}
}

func TestReadEmptyInput(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

// errWriter fails after n bytes, exercising Write's error propagation.
type errWriter struct{ left int }

func (w *errWriter) Write(p []byte) (int, error) {
	if len(p) > w.left {
		n := w.left
		w.left = 0
		return n, bytes.ErrTooLarge
	}
	w.left -= len(p)
	return len(p), nil
}

func TestWritePropagatesErrors(t *testing.T) {
	l := testLaunch(3)
	for _, budget := range []int{0, 4, 64} {
		if err := Write(&errWriter{left: budget}, NewSynthetic(l)); err == nil {
			t.Errorf("budget %d: error swallowed", budget)
		}
	}
	if err := WriteGzip(&errWriter{left: 8}, NewSynthetic(l)); err == nil {
		t.Error("gzip error swallowed")
	}
}
