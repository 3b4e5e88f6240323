package core

import (
	"context"
	"regexp"
	"strings"
	"testing"
)

// fingerprintRun runs the pipeline workload at the given worker count —
// through the naive enumeration oracle when naive is set — and returns
// the report's fingerprints in report order.
func fingerprintRun(t *testing.T, workers int, naive bool) []string {
	t.Helper()
	a := NewAnalyzer(fig1Schema(), WithParallelism(workers))
	res, err := a.analyze(context.Background(), pipelineTraces(), enumOf(naive))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deadlocks) == 0 {
		t.Fatal("workload produced no deadlocks")
	}
	fps := make([]string, len(res.Deadlocks))
	for i, d := range res.Deadlocks {
		fps[i] = d.Fingerprint()
	}
	if res.Stats.Fingerprints != res.DistinctFingerprints() {
		t.Errorf("Stats.Fingerprints = %d, DistinctFingerprints() = %d",
			res.Stats.Fingerprints, res.DistinctFingerprints())
	}
	return fps
}

// TestFingerprintDeterminism pins the satellite guarantee: fingerprints
// are byte-identical at parallelism 1/4/16 and equal to those of the
// naive enumeration oracle.
func TestFingerprintDeterminism(t *testing.T) {
	base := fingerprintRun(t, 1, false)
	for _, fp := range base {
		if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(fp) {
			t.Fatalf("malformed fingerprint %q", fp)
		}
	}
	for _, workers := range []int{4, 16} {
		got := fingerprintRun(t, workers, false)
		if strings.Join(got, ",") != strings.Join(base, ",") {
			t.Errorf("parallelism %d changed fingerprints:\n got %v\nwant %v",
				workers, got, base)
		}
	}
	naive := fingerprintRun(t, 4, true)
	if strings.Join(naive, ",") != strings.Join(base, ",") {
		t.Errorf("naive enumeration changed fingerprints:\n got %v\nwant %v", naive, base)
	}
}

// TestFingerprintMirrorInvariant verifies the fingerprint ignores the
// T1/T2 role assignment: swapping a deadlock's two sides (APIs, cycle
// statements, and tables together) fingerprints identically.
func TestFingerprintMirrorInvariant(t *testing.T) {
	res, err := NewAnalyzer(fig1Schema()).
		AnalyzeContext(context.Background(), pipelineTraces())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deadlocks) == 0 {
		t.Fatal("no deadlocks")
	}
	for i, d := range res.Deadlocks {
		m := &Deadlock{
			APIs: [2]string{d.APIs[1], d.APIs[0]},
			Cycle: Cycle{
				T1: d.Cycle.T2, T2: d.Cycle.T1,
				S1a: d.Cycle.S2a, S1b: d.Cycle.S2b,
				S2a: d.Cycle.S1a, S2b: d.Cycle.S1b,
				Table1: d.Cycle.Table2, Table2: d.Cycle.Table1,
			},
		}
		if d.Fingerprint() != m.Fingerprint() {
			t.Errorf("deadlock %d: mirror fingerprint %s != %s", i, m.Fingerprint(), d.Fingerprint())
		}
	}
}

// TestFingerprintDistinguishes checks fingerprints separate the
// workload's distinct reports: the mapping report→fingerprint must be
// injective over the pipeline corpus.
func TestFingerprintDistinguishes(t *testing.T) {
	res, err := NewAnalyzer(fig1Schema()).
		AnalyzeContext(context.Background(), pipelineTraces())
	if err != nil {
		t.Fatal(err)
	}
	byFP := map[string]string{}
	for _, d := range res.Deadlocks {
		fp := d.Fingerprint()
		if prev, ok := byFP[fp]; ok && prev != d.Key {
			t.Errorf("fingerprint collision %s between distinct keys:\n%s\n%s", fp, prev, d.Key)
		}
		byFP[fp] = d.Key
	}
	if len(byFP) != res.Stats.Fingerprints {
		t.Errorf("distinct fingerprints %d != Stats.Fingerprints %d", len(byFP), res.Stats.Fingerprints)
	}
}
