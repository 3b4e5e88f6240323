package replay

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/minidb"
)

var updateOutcomes = flag.Bool("update-outcomes", false, "rewrite testdata/outcomes.golden")

// TestOutcomesGolden pins the replay verdict of every Table II report:
// one line per report with its app, fingerprint, catalog class, status
// and detail. Replaying the same report twice gives the same outcome, and
// the per-app counts are the ones EXPERIMENTS quotes.
func TestOutcomesGolden(t *testing.T) {
	want := map[string][4]int{ // deadlocked, blocked, no-conflict, setup-failed
		"broadleaf": {166, 11, 0, 3},
		"shopizer":  {42, 6, 0, 17},
	}
	var lines []string
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
		mkState := func() (*minidb.DB, []appkit.UnitTest) {
			fresh := openCatalogApp(t, name)
			return fresh.DB(), fresh.UnitTests()
		}
		first := ReproduceReport(res, mkState)
		if second := ReproduceReport(res, mkState); !slices.Equal(first, second) {
			t.Errorf("%s: a second replay of the same reports gave different outcomes", name)
		}
		var counts [4]int
		for i, o := range first {
			counts[o.Status]++
			d := res.Deadlocks[i]
			lines = append(lines, fmt.Sprintf("%s\t%s\t%s\t%s\t%s", name, d.Fingerprint(), app.Classify(d), o.Status, o.Detail))
		}
		if counts != want[name] {
			t.Errorf("%s: deadlocked/blocked/no-conflict/setup-failed = %v, want %v", name, counts, want[name])
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	const golden = "testdata/outcomes.golden"
	if *updateOutcomes {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantText, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(wantText) {
		t.Errorf("replay outcomes differ from %s (rerun with -update-outcomes and review the diff)", golden)
	}
}
