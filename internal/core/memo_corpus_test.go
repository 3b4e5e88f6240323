package core_test

import (
	"context"
	"testing"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/smt"
	"weseer/internal/trace"
)

// corpusSpecs are the corpora the differential tests of this package run
// over: the Table II apps and a generated one.
var corpusSpecs = []string{"broadleaf", "shopizer", "gen:7,templates=96"}

// corpusTraces opens spec and collects its unit tests.
func corpusTraces(t *testing.T, spec string) (apps.App, []*trace.Trace) {
	t.Helper()
	app, err := apps.Open(spec, apps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
	if err != nil {
		t.Fatal(err)
	}
	return app, traces
}

// corpusFormulas collects spec's unit tests and returns every cycle
// formula phase 3 would build for them.
func corpusFormulas(t *testing.T, spec string) []smt.Expr {
	t.Helper()
	app, traces := corpusTraces(t, spec)
	formulas, err := core.NewAnalyzer(app.Schema()).CycleFormulas(context.Background(), traces)
	if err != nil {
		t.Fatal(err)
	}
	return formulas
}

// TestMemoMatchesDirectOnCorpora runs the memo-vs-direct differential
// over every cycle formula of the Table II apps and a generated corpus:
// what the two-level table serves is what the solver says of the formula
// itself.
func TestMemoMatchesDirectOnCorpora(t *testing.T) {
	for _, spec := range corpusSpecs {
		formulas := corpusFormulas(t, spec)
		if len(formulas) < 100 {
			t.Fatalf("%s: only %d cycle formulas — corpus broken?", spec, len(formulas))
		}
		core.CheckMemoAgainstDirect(t, formulas)
		t.Logf("%s: %d cycle formulas, memoized verdict = direct verdict", spec, len(formulas))
	}
}
