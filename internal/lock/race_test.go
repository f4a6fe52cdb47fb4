//go:build race

package lock

// raceEnabled reports whether the race detector is compiled in; it
// instruments the code under test, so allocation counts mean nothing.
const raceEnabled = true
