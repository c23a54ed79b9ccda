//go:build !race

package funcsim

const raceEnabled = false
