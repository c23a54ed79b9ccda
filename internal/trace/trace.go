// Package trace provides the instruction trace the timing simulator
// consumes. Macsim — the simulator the paper builds on — is trace-driven;
// our equivalent is Synthetic, which expands a kernel.Launch lazily from its
// IR and per-block parameters into the dynamic warp-instruction stream of
// every (thread block, warp) pair, so launches with hundreds of thousands of
// thread blocks are never materialised in memory. There is no on-disk trace.
//
// SameInput decides whether two launches expand to the same streams, and
// Record materialises a launch's streams as the test oracle for it.
package trace

import (
	"slices"

	"tbpoint/internal/isa"
	"tbpoint/internal/kernel"
	"tbpoint/internal/stats"
)

// LineSize is the cache-line granularity of memory requests in bytes
// (Table V: 128B lines).
const LineSize = 128

// MaxRequests is the largest number of memory requests one warp instruction
// can generate (fully divergent: one per lane).
const MaxRequests = 32

// Event is one dynamic warp instruction.
type Event struct {
	// Op is the instruction class.
	Op isa.Opcode
	// Block is the basic-block index the instruction belongs to (for BBV
	// instrumentation).
	Block uint16
	// NumReq is the number of memory requests (memory opcodes only).
	NumReq uint8
}

// AddrConfig controls synthetic address generation.
type AddrConfig struct {
	// TBFootprintB is the bytes of each region's address space devoted to
	// one thread block's strided streams; distinct blocks touch distinct
	// lines (cold-miss behaviour on first touch, reuse within a block).
	TBFootprintB uint64
	// WarpFootprintB separates the strided streams of warps within a block.
	WarpFootprintB uint64
	// RandFootprintB is the footprint irregular (Random) accesses are drawn
	// from, shared across the whole launch; larger values defeat caches
	// more thoroughly.
	RandFootprintB uint64
}

// DefaultAddrConfig returns the address-generation defaults used by the
// workload models: ~256KB per block, ~8KB per warp, 64MB irregular
// footprint. The per-block and per-warp footprints are deliberately not
// multiples of typical cache set spans (sets x line size), so the stream
// bases of concurrently resident blocks and warps spread across sets
// instead of aliasing into one.
func DefaultAddrConfig() AddrConfig {
	return AddrConfig{
		TBFootprintB:   256<<10 + 5*LineSize,
		WarpFootprintB: 8<<10 + 3*LineSize,
		RandFootprintB: 64 << 20,
	}
}

// Synthetic lazily expands a kernel launch into warp streams.
type Synthetic struct {
	Launch *kernel.Launch
	Addr   AddrConfig
	code   *isa.Code // the launch program's µop table, fetched once per launch
}

// NewSynthetic returns the lazy expansion of l with default address
// generation.
func NewSynthetic(l *kernel.Launch) Synthetic {
	return Synthetic{Launch: l, Addr: DefaultAddrConfig(), code: l.Kernel.Program.Code()}
}

// WarpStream returns a fresh stream over warp w of thread block tb. Streams
// are independent; multiple may be open concurrently.
func (s *Synthetic) WarpStream(tb, w int) *SynthStream {
	st := new(SynthStream)
	s.InitStream(st, tb, w)
	return st
}

// InitStream resets a caller-owned SynthStream to warp w of thread block
// tb, reusing its storage. The timing simulator embeds SynthStream by value
// in per-warp state, which keeps the per-stream allocation off the
// simulation hot path.
func (s *Synthetic) InitStream(st *SynthStream, tb, w int) {
	sh := s.Launch.Shape(tb)
	st.strideOff = uint64(tb)*s.Addr.TBFootprintB + uint64(w)*s.Addr.WarpFootprintB
	st.randLines = max(s.Addr.RandFootprintB/LineSize, 1)
	st.af = isa.EffectiveActive(sh.ActiveFrac)
	st.cur.Init(s.code, sh.Trips)
	st.rng.Seed(s.Launch.Seeds[tb] ^ (uint64(w)+1)*0x9e3779b97f4a7c15)
}

// SameInput reports whether launches a and b present the timing simulator
// with the same input, so that one deterministic simulation stands for both.
// It compares exactly what InitStream and the simulator read of a launch:
// the kernel (by pointer: it fixes the program, the warps per block and the
// occupancy), the block count, and per block the trip counts, the effective
// active fraction and — only when the program has a Random memory
// instruction, the RNG's sole consumer in Next — the seed. Index and Grid are
// never read and take no part. A launch without a kernel or a program equals
// nothing, itself included, so a broken launch is never stood in for.
//
// Blocks are compared through the launches' shape tables: each shape of a
// remembers the shape of b it last compared equal to, so launches built
// alike cost one comparison per shape, not per block.
func SameInput(a, b *kernel.Launch) bool {
	k := a.Kernel
	if k == nil || k != b.Kernel || k.Program == nil || a.NumBlocks() != b.NumBlocks() {
		return false
	}
	if readsRNG(k.Program) && !slices.Equal(a.Seeds, b.Seeds) {
		return false
	}
	// same[sa] is 1 + the shape of b that shape sa of a last compared equal to.
	same := make([]uint32, len(a.Shapes))
	for tb, sa := range a.ShapeOf {
		sb := b.ShapeOf[tb]
		if same[sa] == sb+1 {
			continue
		}
		p, q := &a.Shapes[sa], &b.Shapes[sb]
		if !slices.Equal(p.Trips, q.Trips) ||
			isa.EffectiveActive(p.ActiveFrac) != isa.EffectiveActive(q.ActiveFrac) {
			return false
		}
		same[sa] = sb + 1
	}
	return true
}

// readsRNG reports whether any stream over p draws from its RNG.
func readsRNG(p *isa.Program) bool {
	for _, b := range p.Blocks {
		for _, in := range b.Instrs {
			if in.Op.IsMem() && in.Random {
				return true
			}
		}
	}
	return false
}

// SynthStream yields the dynamic instructions of one warp in order. It is
// exported so hot callers can embed it by value (see InitStream), and kept
// to 80 bytes: the simulator touches one per issued instruction.
type SynthStream struct {
	cur isa.Cursor
	// strideOff is the warp's fixed offset within a region for strided
	// accesses (tb*TBFootprintB + warp*WarpFootprintB), precomputed so the
	// per-instruction address math is add-only.
	strideOff uint64
	// randLines is the number of lines irregular accesses draw from:
	// RandFootprintB / LineSize, at least 1.
	randLines uint64
	af        float64
	rng       stats.RNG
}

// regionBase gives each region a disjoint 1TB address window.
func regionBase(region uint8) uint64 { return uint64(region) << 40 }

// Next returns the warp's next instruction and true, or false once the
// stream has ended. For a memory instruction ev it fills addrs[:ev.NumReq]
// with the request line addresses; addrs must have room for MaxRequests
// entries.
func (st *SynthStream) Next(addrs []uint64) (Event, bool) {
	d, ok := st.cur.Next()
	if !ok {
		return Event{}, false
	}
	ev := Event{Op: d.Op, Block: uint16(d.Block)}
	if !d.Op.IsMem() {
		return ev, true
	}
	var n int
	if st.af == 1 {
		// Fully active warp: the request count is just the clamped
		// coalescing degree, no float arithmetic needed (RequestsPerAccess
		// reduces to this for activeFrac == 1).
		n = int(d.Coalesce)
		if n < 1 {
			n = 1
		} else if n > 32 {
			n = 32
		}
	} else {
		n = isa.RequestsPerAccess(d.Coalesce, st.af)
	}
	if n > MaxRequests {
		n = MaxRequests
	}
	ev.NumReq = uint8(n)
	if d.Random {
		// Irregular access: uniform lines over the shared footprint.
		base := regionBase(d.Region)
		for i := 0; i < n; i++ {
			addrs[i] = base + (st.rng.Uint64()%st.randLines)*LineSize
		}
		return ev, true
	}
	// Strided access: the stream position is the loop iteration, so address
	// generation stays stateless and cheap.
	base := regionBase(d.Region) + st.strideOff
	stride := uint64(int64(d.StrideB))
	off := uint64(d.Iter) * stride
	for i := 0; i < n; i++ {
		a := base + off + uint64(i)*LineSize
		addrs[i] = a &^ (LineSize - 1)
	}
	return ev, true
}

// RecEvent is a materialised event with its request addresses.
type RecEvent struct {
	Event
	Addrs []uint64
}

// Record materialises every warp stream of l, indexed by
// tb*WarpsPerBlock + w. It is a test oracle — equal records are what
// SameInput promises — and never an input to the simulator.
func Record(l *kernel.Launch) [][]RecEvent {
	syn := NewSynthetic(l)
	wpb := l.Kernel.WarpsPerBlock()
	out := make([][]RecEvent, l.NumBlocks()*wpb)
	var st SynthStream
	var buf [MaxRequests]uint64
	for i := range out {
		syn.InitStream(&st, i/wpb, i%wpb)
		for {
			ev, ok := st.Next(buf[:])
			if !ok {
				break
			}
			re := RecEvent{Event: ev}
			if ev.NumReq > 0 {
				re.Addrs = slices.Clone(buf[:ev.NumReq])
			}
			out[i] = append(out[i], re)
		}
	}
	return out
}
