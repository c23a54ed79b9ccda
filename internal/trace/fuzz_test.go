package trace

import "testing"

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
