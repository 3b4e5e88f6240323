//go:build race

package solver_test

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
