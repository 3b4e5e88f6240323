package replay

import (
	"context"
	"fmt"
	"testing"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/core"
)

// openCatalogApp opens a Table II model app at the default configuration.
func openCatalogApp(t *testing.T, name string) apps.App {
	t.Helper()
	app, err := apps.Open(name, apps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestCatalogReproducesDeadlocked is the end-to-end true-positive pin:
// every one of the 18 Table II catalog entries must reproduce as a real
// engine-detected deadlock when its reported cycle is replayed against
// collection-time state. A catalog entry whose every report comes back
// NoConflict or SetupFailed is a regression — either the report lost
// its concrete parameters or the replayer lost an edge.
func TestCatalogReproducesDeadlocked(t *testing.T) {
	reproduced := map[string]bool{}
	tried := map[string]int{}
	for _, name := range []string{"broadleaf", "shopizer"} {
		app := openCatalogApp(t, name)
		traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.NewAnalyzer(app.Schema()).AnalyzeContext(context.Background(), traces)
		if err != nil {
			t.Fatal(err)
		}
		byClass := map[string][]*core.Deadlock{}
		for _, d := range res.Deadlocks {
			if id := app.Classify(d); len(id) >= 2 && id[0] == 'd' && id[1] >= '0' && id[1] <= '9' {
				byClass[id] = append(byClass[id], d)
			}
		}
		for id, ds := range byClass {
			for _, d := range ds {
				if reproduced[id] {
					break
				}
				tried[id]++
				fresh := openCatalogApp(t, name)
				tests := fresh.UnitTests()
				if _, err := appkit.Collect(tests[:prefixLen(tests, d.APIs[0], d.APIs[1])], concolic.ModeOff); err != nil {
					t.Fatalf("%s %s: rebuild state: %v", name, id, err)
				}
				out := Reproduce(fresh.DB(), d.Cycle)
				if out.Status == Deadlocked {
					reproduced[id] = true
				}
			}
		}
	}
	for i := 1; i <= 18; i++ {
		id := fmt.Sprintf("d%d", i)
		if !reproduced[id] {
			t.Errorf("catalog entry %s: no report reproduced as DEADLOCKED (%d attempt(s))", id, tried[id])
		}
	}
	t.Logf("18/18 check: %d classes reproduced, attempts by class: %v", len(reproduced), tried)
}
