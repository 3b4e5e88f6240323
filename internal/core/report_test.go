package core

import (
	"strings"
	"testing"
	"time"

	"weseer/internal/solver"
)

// TestStatsRenderGolden pins the exact terminal rendering of the funnel
// line, including the engine-counter line added with the observability
// work. Update the golden strings deliberately — downstream scripts
// scrape this output.
func TestStatsRenderGolden(t *testing.T) {
	full := Stats{
		Traces: 6, Pairs: 192, PairsAfterPhase1: 16,
		CoarseCycles: 826, LockFiltered: 214, GroupsSolved: 127,
		SolverCalls: 124, MemoHits: 3, CanonCalls: 124,
		SolverSAT: 18, SolverUNSAT: 108, SolverUnknown: 1,
		Engine: solver.Stats{
			Decisions: 411, Conflicts: 37, Propagations: 1902,
			LearnedClauses: 35, Backjumps: 29, TheoryCalls: 260,
		},
		Parallelism: 4,
		SolverTime:  1520 * time.Millisecond,
	}
	want := "phases: 6 traces, 192 txn pairs -> 16 after txn-level filter -> " +
		"826 coarse cycles -> 214 lock-filtered, 127 groups solved via " +
		"124 solver calls, 3 memo hits over 124 shapes (SAT 18 / UNSAT 108 / UNKNOWN 1) " +
		"in 1.52s on 4 workers\n" +
		"engine: 411 decisions, 37 conflicts, 1902 propagations, " +
		"35 learned clauses, 29 backjumps, 260 theory calls"
	if got := full.Render(); got != want {
		t.Errorf("full stats render:\n got: %q\nwant: %q", got, want)
	}

	// Canonicalization time follows the solver time when there is any, and
	// WithoutTimings takes both back out.
	timed := full
	timed.CanonTime = 4100 * time.Microsecond
	if got, sub := timed.Render(), "in 1.52s (canon 4.1ms) on 4 workers\n"; !strings.Contains(got, sub) {
		t.Errorf("stats render with canon time lacks %q:\n%s", sub, got)
	}
	if got := timed.WithoutTimings().Render(); strings.Contains(got, "canon") || !strings.Contains(got, " in 0s\n") {
		t.Errorf("WithoutTimings left a timing in the stats line:\n%s", got)
	}

	// Without engine activity (e.g. a coarse-only run) the engine line
	// must be absent entirely, not rendered as zeros.
	bare := Stats{Traces: 2, Pairs: 4, PairsAfterPhase1: 4, CoarseCycles: 9}
	want = "phases: 2 traces, 4 txn pairs -> 4 after txn-level filter -> " +
		"9 coarse cycles -> 0 lock-filtered, 0 groups solved via " +
		"0 solver calls (SAT 0 / UNSAT 0 / UNKNOWN 0) in 0s"
	if got := bare.Render(); got != want {
		t.Errorf("bare stats render:\n got: %q\nwant: %q", got, want)
	}

	// An indexed enumeration surfaces its posting-list work as a bracket
	// segment; zero probes (the naive loop's) must render
	// nothing, which the two cases above already pin.
	indexed := Stats{
		Traces: 2, Pairs: 4, PairsAfterPhase1: 2, CoarseCycles: 9,
		IndexProbes: 7,
	}
	want = "phases: 2 traces, 4 txn pairs -> 2 after txn-level filter -> " +
		"9 coarse cycles -> 0 lock-filtered, 0 groups solved via " +
		"0 solver calls (SAT 0 / UNSAT 0 / UNKNOWN 0) in 0s " +
		"[index: 7 postings probed]"
	if got := indexed.Render(); got != want {
		t.Errorf("indexed stats render:\n got: %q\nwant: %q", got, want)
	}

	// Distinct deadlock fingerprints surface as their own bracket
	// segment; zero (no reports) must render nothing, which the cases
	// above pin.
	fingerprinted := Stats{
		Traces: 2, Pairs: 4, PairsAfterPhase1: 2, CoarseCycles: 9,
		Fingerprints: 3,
	}
	want = "phases: 2 traces, 4 txn pairs -> 2 after txn-level filter -> " +
		"9 coarse cycles -> 0 lock-filtered, 0 groups solved via " +
		"0 solver calls (SAT 0 / UNSAT 0 / UNKNOWN 0) in 0s " +
		"[fingerprints: 3 distinct]"
	if got := fingerprinted.Render(); got != want {
		t.Errorf("fingerprinted stats render:\n got: %q\nwant: %q", got, want)
	}
}

// TestResultRenderIncludesEngineLine checks the engine counters surface
// in a real analysis report.
func TestResultRenderIncludesEngineLine(t *testing.T) {
	res := analyze(t, pipelineTraces())
	if res.Stats.SolverCalls == 0 {
		t.Fatal("workload made no solver calls")
	}
	if res.Stats.CanonCalls == 0 || res.Stats.CanonTime <= 0 {
		t.Errorf("%d shapes canonicalized in %v: CanonTime not accumulated", res.Stats.CanonCalls, res.Stats.CanonTime)
	}
	out := res.Render()
	for _, want := range []string{"\nengine: ", " decisions, ", " theory calls", " (canon "} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
