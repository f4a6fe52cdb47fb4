//go:build !race

package lock

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
