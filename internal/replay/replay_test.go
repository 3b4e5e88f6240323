package replay

import (
	"context"
	"testing"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/apps/broadleaf"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/minidb"
)

func analyzeBroadleaf(t *testing.T) (*core.Result, func() (*minidb.DB, []appkit.UnitTest)) {
	t.Helper()
	open := func() apps.App {
		app, err := apps.Open("broadleaf", apps.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return app
	}
	app := open()
	traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewAnalyzer(app.Schema()).AnalyzeContext(context.Background(), traces)
	if err != nil {
		t.Fatal(err)
	}
	mkState := func() (*minidb.DB, []appkit.UnitTest) {
		fresh := open()
		return fresh.DB(), fresh.UnitTests()
	}
	return res, mkState
}

// TestReproduceD1 replays the Register–Register merge deadlock: the two
// holding SELECTs take compatible range locks, and the two INSERTs then
// close the cycle, so the engine must abort a victim.
func TestReproduceD1(t *testing.T) {
	res, mkState := analyzeBroadleaf(t)
	var reproduced bool
	for _, d := range res.Deadlocks {
		if broadleaf.Classify(d) != "d1" {
			continue
		}
		db, tests := mkState()
		if _, err := appkit.Collect(tests[:prefixLen(tests, d.APIs[0], d.APIs[1])], concolic.ModeOff); err != nil {
			t.Fatal(err)
		}
		out := Reproduce(db, d.Cycle)
		t.Logf("d1 reproduction: %s (%s)", out.Status, out.Detail)
		if out.Status == Deadlocked {
			reproduced = true
		}
	}
	if !reproduced {
		t.Fatal("d1 did not reproduce")
	}
}

// TestReproduceReportTriage replays every Broadleaf report and checks the
// triage: a substantial fraction reproduces as real deadlocks, and the
// checkout reports (protected by an application-level lock the replayer
// bypasses) reproduce too — confirming they are database-level true
// positives that only the app-level lock prevents.
func TestReproduceReportTriage(t *testing.T) {
	res, mkState := analyzeBroadleaf(t)
	outcomes := ReproduceReport(res, mkState)
	counts := map[Status]int{}
	deadlockedByClass := map[string]bool{}
	for i, o := range outcomes {
		counts[o.Status]++
		if o.Status == Deadlocked {
			deadlockedByClass[broadleaf.Classify(res.Deadlocks[i])] = true
		}
	}
	t.Logf("outcomes: %d deadlocked, %d blocked, %d no-conflict, %d setup-failed of %d",
		counts[Deadlocked], counts[Blocked], counts[NoConflict], counts[SetupFailed], len(outcomes))
	t.Logf("classes reproduced: %v", deadlockedByClass)
	if counts[Deadlocked] == 0 {
		t.Fatal("no report reproduced")
	}
	// The gap-lock families known to replay exactly from their recorded
	// statements must reproduce.
	for _, id := range []string{"d1", "d2"} {
		if !deadlockedByClass[id] {
			t.Errorf("%s did not reproduce", id)
		}
	}
}

// TestStatePreserved: reproduction rolls both transactions back.
func TestStatePreserved(t *testing.T) {
	res, mkState := analyzeBroadleaf(t)
	if len(res.Deadlocks) == 0 {
		t.Fatal("no deadlocks")
	}
	db, tests := mkState()
	d := res.Deadlocks[0]
	if _, err := appkit.Collect(tests[:prefixLen(tests, d.APIs[0], d.APIs[1])], concolic.ModeOff); err != nil {
		t.Fatal(err)
	}
	before := db.StatsSnapshot().Commits
	rows := len(db.TableRows("Customer"))
	Reproduce(db, d.Cycle)
	if got := len(db.TableRows("Customer")); got != rows {
		t.Errorf("customer rows changed: %d -> %d", rows, got)
	}
	if db.StatsSnapshot().Commits != before {
		t.Errorf("reproduction committed transactions")
	}
}
