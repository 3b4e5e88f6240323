//go:build race

package trace_test

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
