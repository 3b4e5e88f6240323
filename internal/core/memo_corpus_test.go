package core_test

import (
	"context"
	"testing"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/core"
)

// TestMemoMatchesDirectOnCorpora runs the memo-vs-direct differential
// over every cycle formula of the Table II apps and a generated corpus:
// what the two-level table serves is what the solver says of the formula
// itself.
func TestMemoMatchesDirectOnCorpora(t *testing.T) {
	for _, spec := range []string{"broadleaf", "shopizer", "gen:7,templates=96"} {
		app, err := apps.Open(spec, apps.Options{})
		if err != nil {
			t.Fatal(err)
		}
		traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
		if err != nil {
			t.Fatal(err)
		}
		formulas, err := core.NewAnalyzer(app.Schema()).CycleFormulas(context.Background(), traces)
		if err != nil {
			t.Fatal(err)
		}
		if len(formulas) < 100 {
			t.Fatalf("%s: only %d cycle formulas — corpus broken?", spec, len(formulas))
		}
		core.CheckMemoAgainstDirect(t, formulas)
		t.Logf("%s: %d cycle formulas, memoized verdict = direct verdict", spec, len(formulas))
	}
}
