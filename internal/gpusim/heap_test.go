package gpusim

import (
	"math/rand"
	"testing"
)

// classicHeap is the wake heap as a textbook binary heap: push sifts up
// while the parent is strictly later, and pop sifts the last entry down
// from the root with two comparisons per level — the smaller child, the
// left one on a tie, is taken only while it is strictly earlier. It is the
// reference wakeHeap's layout is held to.
type classicHeap []wakeEntry

func (h *classicHeap) push(e wakeEntry) {
	*h = append(*h, e)
	hp := *h
	for i := len(hp) - 1; i > 0; {
		p := (i - 1) / 2
		if hp[p].cycle <= hp[i].cycle {
			break
		}
		hp[p], hp[i] = hp[i], hp[p]
		i = p
	}
}

func (h *classicHeap) popDue(cycle int64) (warpRef, bool) {
	old := *h
	if len(old) == 0 || old[0].cycle > cycle {
		return warpRef{}, false
	}
	top := old[0].ref
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && old[l].cycle < old[m].cycle {
			m = l
		}
		if r < n && old[r].cycle < old[m].cycle {
			m = r
		}
		if m == i {
			break
		}
		old[i], old[m] = old[m], old[i]
		i = m
	}
	return top, true
}

// heapOp is one step of a wake-heap sequence: a push of a wake at cycle,
// or a popDue with cycle as the due bound.
type heapOp struct {
	push  bool
	cycle int64
}

// checkHeapOps drives a wakeHeap and a classicHeap through ops and fails
// unless, after every step, they popped the same entry (or both declined)
// and hold the same array entry for entry. Every pushed entry carries a
// distinct ref, so equal-cycle entries are told apart.
func checkHeapOps(t *testing.T, ops []heapOp) {
	t.Helper()
	var got wakeHeap
	var want classicHeap
	for k, op := range ops {
		if op.push {
			e := wakeEntry{cycle: op.cycle, ref: warpRef{slot: int32(k), w: int32(k % 7)}}
			got.push(e)
			want.push(e)
		} else {
			g, gok := got.popDue(op.cycle)
			w, wok := want.popDue(op.cycle)
			if g != w || gok != wok {
				t.Fatalf("op %d popDue(%d) = %v, %v; classic sift %v, %v", k, op.cycle, g, gok, w, wok)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("op %d: heap length %d, classic sift %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("op %d: heap[%d] = %v, classic sift %v", k, i, got[i], want[i])
			}
		}
	}
}

// heapSpans are the cycle ranges the oracle draws wakes from: the small
// ones make equal cycles dense, the last makes them rare.
var heapSpans = [...]int64{2, 3, 8, 1 << 30}

// TestWakeHeapMatchesClassicSift holds the bottom-up popDue to the classic
// two-comparison sift on random push/pop sequences: same pops and same
// heap array after every step, so equal-cycle wakes pop in the same order.
func TestWakeHeapMatchesClassicSift(t *testing.T) {
	for _, span := range heapSpans {
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			// A push bias that grows the heap to a few hundred entries,
			// then a drain, so deep and shallow heaps both get popped.
			bias := 0.4 + 0.3*rng.Float64()
			ops := make([]heapOp, 0, 3000)
			for len(ops) < 2000 {
				if rng.Float64() < bias {
					ops = append(ops, heapOp{push: true, cycle: rng.Int63n(span)})
				} else {
					ops = append(ops, heapOp{cycle: rng.Int63n(span + 1)})
				}
			}
			for i := 0; i < 1000; i++ {
				ops = append(ops, heapOp{cycle: span})
			}
			checkHeapOps(t, ops)
		}
	}
}

// FuzzWakeHeap is TestWakeHeapMatchesClassicSift's oracle over fuzzed
// sequences: spanSel picks the cycle span, and each byte of raw is a push
// (low bit clear) or a popDue (low bit set) whose cycle the other bits
// spread over the span.
func FuzzWakeHeap(f *testing.F) {
	f.Add(uint8(0), []byte{0, 2, 0, 4, 1, 1, 1})
	f.Add(uint8(1), []byte{6, 4, 2, 0, 2, 4, 0xff, 3, 0xff})
	f.Add(uint8(2), []byte{14, 12, 10, 8, 6, 4, 2, 0, 0, 2, 1, 0xfd, 0xff, 0xff})
	f.Add(uint8(3), []byte{0x10, 0x20, 0x30, 0x40, 0x31, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, spanSel uint8, raw []byte) {
		span := heapSpans[int(spanSel)%len(heapSpans)]
		ops := make([]heapOp, len(raw))
		for i, b := range raw {
			c := int64(uint64(b>>1)*0x9e3779b97f4a7c15>>1) % (span + 1)
			ops[i] = heapOp{push: b&1 == 0, cycle: c}
		}
		checkHeapOps(t, ops)
	})
}
