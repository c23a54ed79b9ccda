//go:build race

package e2e

// raceEnabled reports that the race detector is on, so TestMain builds the
// binaries under test with -race too.
const raceEnabled = true
