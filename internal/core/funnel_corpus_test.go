package core_test

import (
	"context"
	"slices"
	"testing"

	"weseer/internal/core"
	"weseer/internal/trace"
)

// TestLockFilterIsExactOnCorpora: on the Table II apps and a generated
// corpus, every cycle the lock-collision filter drops has a C-edge whose
// conflict condition is false — the filter saves solver calls and changes
// no verdict. Broadleaf is where it drops some.
func TestLockFilterIsExactOnCorpora(t *testing.T) {
	for _, spec := range corpusSpecs {
		app, traces := corpusTraces(t, spec)
		dropped := core.CheckLockFilterIsExact(t, app.Schema(), traces)
		if spec == "broadleaf" && dropped == 0 {
			t.Fatal("broadleaf: the filter dropped no cycle; the check checked nothing")
		}
		t.Logf("%s: %d cycle drops over both plan modes, each with a false C-edge", spec, dropped)
	}
}

// writesWhatOtherAccesses is one direction of phase 1's signature test.
func writesWhatOtherAccesses(a, b *trace.Txn) bool {
	_, wr := a.Tables()
	acc, _ := b.Tables()
	for tbl := range wr {
		if acc[tbl] {
			return true
		}
	}
	return false
}

// TestPhase1KnownMiss pins what phase 1 costs in recall, against the
// analysis with phase 1 off: nothing on Table II, and elsewhere only pairs
// in which one transaction writes no table the other accesses. The rule is
// symmetric — each side must write what the other reads — but minidb's
// shared read locks also deadlock a reader that holds rows against a
// writer, so such a pair can be a real, solver-confirmed deadlock. On
// gen:7,templates=96 there is exactly one: the f11 scan against the f11
// update. This pins the miss as a known deviation; it does not fix it.
func TestPhase1KnownMiss(t *testing.T) {
	for _, spec := range corpusSpecs {
		app, traces := corpusTraces(t, spec)
		ctx := context.Background()
		def, err := core.NewAnalyzer(app.Schema(), core.WithParallelism(1)).AnalyzeContext(ctx, traces)
		if err != nil {
			t.Fatal(err)
		}
		all, err := core.AnalyzeWithoutPhase1(ctx, app.Schema(), traces, core.WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		if all.Stats.PairsAfterPhase1 != all.Stats.Pairs || def.Stats.Pairs != all.Stats.Pairs {
			t.Fatalf("%s: %d pairs, %d after phase 1 with it off (default run: %d pairs)",
				spec, all.Stats.Pairs, all.Stats.PairsAfterPhase1, def.Stats.Pairs)
		}
		reported := map[string]bool{}
		for _, d := range all.Deadlocks {
			reported[d.Fingerprint()] = true
		}
		for _, d := range def.Deadlocks {
			if !reported[d.Fingerprint()] {
				t.Errorf("%s: %s is reported only with phase 1 on", spec, d.Fingerprint())
			}
			delete(reported, d.Fingerprint())
		}
		var extra []string
		for _, d := range all.Deadlocks {
			if !reported[d.Fingerprint()] {
				continue
			}
			t1, t2 := d.Cycle.T1.Txn, d.Cycle.T2.Txn
			if writesWhatOtherAccesses(t1, t2) && writesWhatOtherAccesses(t2, t1) {
				t.Errorf("%s: phase 1 drops %s (%s × %s), a pair its own rule keeps", spec, d.Fingerprint(), d.APIs[0], d.APIs[1])
			}
			extra = append(extra, d.Fingerprint()+" "+d.APIs[0]+" × "+d.APIs[1])
		}
		slices.Sort(extra)
		t.Logf("%s: %d reports, %d with phase 1 off; extra: %v", spec, len(def.Deadlocks), len(all.Deadlocks), extra)
		var want []string
		if spec == "gen:7,templates=96" {
			want = []string{"27db6d45eac2c101 F11x0Scan × F11x0Update"}
		}
		if !slices.Equal(extra, want) {
			t.Errorf("%s: reports only phase 1 off finds: %v, want %v", spec, extra, want)
		}
	}
}
