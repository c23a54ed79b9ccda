//go:build race

package funcsim

// raceEnabled reports that the race detector is on; it adds allocations of
// its own, so allocation-count tests skip.
const raceEnabled = true
