package trace

import (
	"bytes"
	"testing"
)

// FuzzRead checks that arbitrary byte streams never panic the trace
// decoder and that valid traces survive a decode-encode-decode round trip.
func FuzzRead(f *testing.F) {
	// Seed with valid traces (plain and gzip) plus structural mutants.
	var plain, packed bytes.Buffer
	l := testLaunch(2)
	if err := Write(&plain, NewSynthetic(l)); err != nil {
		f.Fatal(err)
	}
	if err := WriteGzip(&packed, NewSynthetic(l)); err != nil {
		f.Fatal(err)
	}
	f.Add(plain.Bytes())
	f.Add(packed.Bytes())
	f.Add([]byte("TBTRACE1"))
	f.Add([]byte{})
	f.Add([]byte{0x1f, 0x8b})

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Anything accepted must re-encode and decode to the same shape.
		var buf bytes.Buffer
		if err := Write(&buf, rec); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if back.Warps != rec.Warps || len(back.Events) != len(rec.Events) {
			t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
				back.Warps, len(back.Events), rec.Warps, len(rec.Events))
		}
	})
}

// FuzzSameInput holds the launch-equality predicate to its contract on pairs
// decoded from the fuzz input (pairFrom): launches it calls equal must
// expand to the same recorded streams. Seeded with the mutation table.
func FuzzSameInput(f *testing.F) {
	for _, tc := range sameInputTable {
		f.Add(tc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			return // every mutation kind fits many times over; keep launches small
		}
		a, b := pairFrom(data)
		checkSameInput(t, a, b)
	})
}
