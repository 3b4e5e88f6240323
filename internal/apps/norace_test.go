//go:build !race

package apps

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
