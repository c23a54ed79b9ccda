package trace

import (
	"math"
	"reflect"
	"testing"

	"tbpoint/internal/kernel"
	"tbpoint/internal/stats"
)

// The fields of a launch a mutation can touch; the first byte of each
// three-byte (field, block, value) group pairFrom decodes.
const (
	mutIndex byte = iota
	mutSeed
	mutActive
	mutTrip
	mutGrow
	mutShrink
	mutKernel
	numMuts
)

// activeFracs are the fractions mutActive picks from: 0, 1, 1.7, -1 and NaN
// all run fully active (isa.EffectiveActive); 0.5 and 0.25 do not.
var activeFracs = []float64{0, 1, 1.7, -1, 0.5, 0.25, math.NaN()}

// pairFrom decodes two small launches from fuzz input. Bit 0 of data[0]
// picks the base launch a — three blocks of testLaunch (no Random access) or
// of irregularLaunch (a Random gather) — and every following three-byte
// group mutates the block list b is then built from, which starts as a deep
// copy of a's; b shares a's kernel unless a mutation says otherwise.
func pairFrom(data []byte) (a, b *kernel.Launch) {
	if len(data) == 0 {
		data = []byte{0}
	}
	a = testLaunch(3)
	if data[0]&1 == 1 {
		a = irregularLaunch(3)
	}
	k, index := a.Kernel, 0
	params := make([]kernel.TBParams, a.NumBlocks())
	for tb := range params {
		params[tb] = a.Params(tb)
		params[tb].Trips = append([]int(nil), params[tb].Trips...)
	}
	for m := data[1:]; len(m) >= 3; m = m[3:] {
		tb, v := int(m[1])%len(params), m[2]
		switch m[0] % numMuts {
		case mutIndex:
			index = int(v)
		case mutSeed:
			params[tb].Seed = uint64(v)
		case mutActive:
			params[tb].ActiveFrac = activeFracs[int(v)%len(activeFracs)]
		case mutTrip:
			params[tb].Trips = []int{int(v % 6)}
		case mutGrow:
			params = append(params, params[tb])
		case mutShrink:
			if len(params) > 1 {
				params = params[:len(params)-1]
			}
		case mutKernel:
			c := *k
			k = &c
		}
	}
	return a, kernel.NewLaunch(k, index, params)
}

// checkSameInput holds one pair to the predicate's contract: it is
// symmetric, and launches it calls equal expand to the same streams.
func checkSameInput(t *testing.T, a, b *kernel.Launch) bool {
	t.Helper()
	same := SameInput(a, b)
	if SameInput(b, a) != same {
		t.Fatalf("SameInput is not symmetric: a,b %v", same)
	}
	if same && !reflect.DeepEqual(Record(a), Record(b)) {
		t.Fatal("SameInput is true for launches whose recorded streams differ")
	}
	return same
}

// sameInputTable is the mutation table: what may change without changing
// what a launch's streams read, and what may not. It doubles as
// FuzzSameInput's seed corpus.
var sameInputTable = []struct {
	name string
	data []byte
	want bool
}{
	{"untouched", []byte{0}, true},
	{"untouched, Random program", []byte{1}, true},
	{"Index", []byte{0, mutIndex, 0, 9}, true},
	{"Index, Random program", []byte{1, mutIndex, 0, 3}, true},
	{"seed of a Random-free program", []byte{0, mutSeed, 1, 99}, true},
	{"ActiveFrac 1 -> 0", []byte{0, mutActive, 0, 0}, true},
	{"ActiveFrac 1 -> 1.7", []byte{1, mutActive, 2, 2}, true},
	{"ActiveFrac 1 -> -1", []byte{0, mutActive, 1, 3}, true},
	{"ActiveFrac 1 -> NaN", []byte{1, mutActive, 2, 6}, true},
	{"ActiveFrac 0 and 1.7 across blocks", []byte{0, mutActive, 0, 0, mutActive, 1, 2}, true},
	{"ActiveFrac 0 and 1.7 alternating against one shape", alternating, true},
	{"one trip", []byte{0, mutTrip, 2, 5}, false},
	{"one trip, Random program", []byte{1, mutTrip, 0, 3}, false},
	{"one effective active fraction", []byte{0, mutActive, 1, 4}, false},
	{"one seed of a program with a Random access", []byte{1, mutSeed, 1, 99}, false},
	{"one more block", []byte{0, mutGrow, 2, 0}, false},
	{"one block fewer", []byte{1, mutShrink, 0, 0}, false},
	{"another Kernel with the same fields", []byte{0, mutKernel, 0, 0}, false},
}

// alternating turns irregularLaunch's single shape (every block {4}, 1) into
// two bit-distinct shapes of one effective active fraction: 0, 1.7, 0.
var alternating = []byte{1, mutActive, 0, 0, mutActive, 1, 2, mutActive, 2, 0}

// TestSameInputAcrossShapeTables: equality is of what the blocks read, not
// of how the two launches' shape tables happen to split it.
func TestSameInputAcrossShapeTables(t *testing.T) {
	a, b := pairFrom(alternating)
	if len(a.Shapes) != 1 || len(b.Shapes) != 2 {
		t.Fatalf("shape tables have %d and %d entries, want 1 and 2", len(a.Shapes), len(b.Shapes))
	}
	if !checkSameInput(t, a, b) {
		t.Error("blocks alternating ActiveFrac 0 and 1.7 differ from fully active ones")
	}
}

func TestSameInputMutationTable(t *testing.T) {
	for _, tc := range sameInputTable {
		a, b := pairFrom(tc.data)
		if got := checkSameInput(t, a, b); got != tc.want {
			t.Errorf("%s: SameInput = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSameInputImpliesEqualStreams is the property over generated pairs:
// whenever the predicate holds, the recorded streams are deep-equal. The
// generator mutates a copy, so both outcomes occur often.
func TestSameInputImpliesEqualStreams(t *testing.T) {
	rng := stats.NewRNG(20)
	outcomes := map[bool]int{}
	for i := 0; i < 400; i++ {
		data := make([]byte, 1+3*int(rng.Uint64()%4))
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		a, b := pairFrom(data)
		outcomes[checkSameInput(t, a, b)]++
	}
	if outcomes[true] < 40 || outcomes[false] < 40 {
		t.Errorf("generator is lopsided: %d equal pairs, %d unequal", outcomes[true], outcomes[false])
	}
}

// TestSameInputBrokenLaunchEqualsNothing: a launch without a kernel or a
// program is never stood in for, not even by itself, and comparing it
// dereferences nothing.
func TestSameInputBrokenLaunchEqualsNothing(t *testing.T) {
	good := testLaunch(2)
	noKernel, noProgram := *good, *good
	noKernel.Kernel = nil
	noProgram.Kernel = &kernel.Kernel{ThreadsPerBlock: 64}
	for _, l := range []*kernel.Launch{&noKernel, &noProgram} {
		if SameInput(l, l) || SameInput(l, good) || SameInput(good, l) {
			t.Errorf("launch with Kernel %v compares equal to something", l.Kernel)
		}
	}
}
