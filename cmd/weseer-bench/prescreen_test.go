package main

import (
	"testing"

	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/fixapply"
	"weseer/internal/staticlint"
)

// TestPrescreenSound is the Phase-0 soundness gate: on both model
// applications, enabling the static prescreen must not change a single
// reported deadlock — same group keys, same Table II classification,
// all 18 cataloged deadlocks still found — while measurably cutting the
// number of solver calls. It additionally pins the baseline solver-call
// funnel (326 groups = 226 solver calls + 100 memo hits on the Table II
// workload), requires the canonical order of the same traces
// (staticlint.CanonicalizeTraces) to carry the f10/f11-style row-order
// suggestion on Shopizer, and requires the full prescreen report to stay
// byte-identical at parallelism 1, 4, and 16.
func TestPrescreenSound(t *testing.T) {
	totalSaved, totalOff, totalOn := 0, 0, 0
	totalOffCalls, totalOffMemo := 0, 0
	for _, name := range []string{"broadleaf", "shopizer"} {
		app := openApp(name)
		traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
		if err != nil {
			t.Fatalf("%s: collect: %v", name, err)
		}
		off := analyze(app.Schema(), traces)
		on := analyze(app.Schema(), traces, core.WithPrescreen())

		// Identical reports: the prescreen may only discard candidates the
		// solver would refute, never a satisfiable cycle.
		offKeys := map[string]bool{}
		for _, d := range off.Deadlocks {
			offKeys[d.Key] = true
		}
		if len(on.Deadlocks) != len(off.Deadlocks) {
			t.Errorf("%s: prescreen changed the report count: %d vs %d",
				name, len(on.Deadlocks), len(off.Deadlocks))
		}
		for _, d := range on.Deadlocks {
			if !offKeys[d.Key] {
				t.Errorf("%s: prescreen introduced group %s", name, d.Key)
			}
		}
		found := map[string]int{}
		for _, d := range on.Deadlocks {
			found[app.Classify(d)]++
		}
		for _, e := range app.(fixapply.Cataloged).Catalog() {
			if id := e.ID; found[id] == 0 {
				t.Errorf("%s: prescreen dropped cataloged deadlock %s", name, id)
			}
		}
		if on.Stats.SolverSAT != off.Stats.SolverSAT {
			t.Errorf("%s: prescreen changed SAT count: %d vs %d",
				name, on.Stats.SolverSAT, off.Stats.SolverSAT)
		}
		// Every skipped group must be accounted for: the solver-call total
		// with prescreen plus the saved calls never exceeds the baseline.
		if on.Stats.GroupsSolved+on.Stats.PrescreenSaved > off.Stats.GroupsSolved {
			t.Errorf("%s: prescreen accounting broken: %d solved + %d saved > %d baseline",
				name, on.Stats.GroupsSolved, on.Stats.PrescreenSaved, off.Stats.GroupsSolved)
		}
		totalSaved += on.Stats.PrescreenSaved
		totalOff += off.Stats.GroupsSolved
		totalOn += on.Stats.GroupsSolved
		totalOffCalls += off.Stats.SolverCalls
		totalOffMemo += off.Stats.MemoHits
		t.Logf("%s: %d -> %d solver calls (%d saved, %d/%d pairs pruned)",
			name, off.Stats.GroupsSolved, on.Stats.GroupsSolved,
			on.Stats.PrescreenSaved, on.Stats.PrescreenPairsPruned, on.Stats.PrescreenPairs)

		// Canonicalization is computed on demand from the traces, never by
		// the analysis: absent from both results, non-trivial on this
		// workload once attached.
		if off.CanonicalOrder != nil || on.CanonicalOrder != nil {
			t.Errorf("%s: AnalyzeContext attached a canonical order", name)
		}
		co := staticlint.CanonicalizeTraces(traces, app.Schema())
		on.CanonicalOrder = co
		if len(co.Order) == 0 || co.Templates == 0 || co.Edges == 0 {
			t.Errorf("%s: degenerate canonical order: %d nodes, %d templates, %d edges",
				name, len(co.Order), co.Templates, co.Edges)
		}
		if name == "shopizer" {
			// The inversion behind the paper's f10/f11 fixes: Checkout
			// prices the cart's product rows ascending but commits them
			// descending, so the canonical order must flag the row pair.
			s := co.SuggestionFor("Product[i:1]", "Product[i:2]")
			if s == nil {
				t.Fatalf("shopizer: canonical order misses the f10/f11 Product row-order suggestion; got %+v",
					co.Suggestions)
			}
			if s.Violators == 0 || s.Supporters == 0 || len(s.Sites) == 0 {
				t.Errorf("shopizer: row-order suggestion lacks evidence: %+v", s)
			}
		}

		// The rendered prescreen report — findings, canonical order, and
		// ranked suggestions included — must be byte-identical at any
		// parallelism (the canonical order is a function of the traces
		// alone). Wall-clock timings are the one legitimately
		// nondeterministic field, so they are zeroed before rendering.
		onFlat := *on
		onFlat.Stats = on.Stats.WithoutTimings()
		serial := onFlat.Render()
		for _, workers := range []int{4, 16} {
			res := analyze(app.Schema(), traces, core.WithPrescreen(), core.WithParallelism(workers))
			res.Stats = res.Stats.WithoutTimings()
			res.CanonicalOrder = co
			if got := res.Render(); got != serial {
				t.Errorf("%s: prescreen report differs at parallelism %d", name, workers)
			}
		}
	}
	// Pin the measured Table II baseline funnel so silent solver or
	// grouping drift surfaces here, not in a user-visible report.
	if totalOff != 326 || totalOffCalls != 226 || totalOffMemo != 100 {
		t.Errorf("baseline funnel drifted: %d groups = %d solver calls + %d memo hits, want 326 = 226 + 100",
			totalOff, totalOffCalls, totalOffMemo)
	}
	// The measured workload refutes 32 of 326 groups (all on Shopizer's
	// rigid literal keys); require a conservative floor so regressions in
	// the screen's precision surface here.
	if totalSaved < 16 {
		t.Errorf("prescreen saved only %d solver calls, want >= 16 (measured 32)", totalSaved)
	}
	if totalOn >= totalOff {
		t.Errorf("prescreen did not reduce solver calls: %d -> %d", totalOff, totalOn)
	}
}
