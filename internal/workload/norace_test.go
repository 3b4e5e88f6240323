//go:build !race

package workload_test

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
