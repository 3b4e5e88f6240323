package workload_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/minidb"
	"weseer/internal/obs/obstest"
	"weseer/internal/workload"
)

func dbConfig() minidb.Config {
	return minidb.Config{
		StatementDelay:  100 * time.Microsecond,
		LockWaitTimeout: 100 * time.Millisecond,
	}
}

// open opens a registry app with the named fixes applied.
func open(t testing.TB, spec string, db minidb.Config, fixes ...string) (*minidb.DB, workload.Flow) {
	t.Helper()
	app, err := apps.Open(spec, apps.Options{Apply: fixes, DB: db})
	if err != nil {
		t.Fatal(err)
	}
	return app.DB(), app.Flow()
}

// run drives 64 clients for 400ms against a model app with the named
// fixes applied.
func run(t *testing.T, spec string, fixes ...string) workload.Result {
	t.Helper()
	db, flow := open(t, spec, dbConfig(), fixes...)
	return workload.Run(workload.Config{
		Clients:  64,
		Duration: 400 * time.Millisecond,
		Seed:     7,
	}, db, flow)
}

// TestFig10Shape checks the headline Broadleaf result: with all fixes
// enabled the application sustains far higher throughput than with the
// deadlocks left to the database's detect-and-recover handling, and the
// abort rate drops to (near) zero — the paper's 904 → 0 aborts/s.
func TestFig10Shape(t *testing.T) {
	enabled := run(t, "broadleaf", "all")
	disabled := run(t, "broadleaf")
	t.Logf("enable all: %.0f API/s, %d deadlocks; disable all: %.0f API/s, %d deadlocks",
		enabled.Throughput, enabled.Deadlocks, disabled.Throughput, disabled.Deadlocks)
	if enabled.Throughput < 4*disabled.Throughput {
		t.Errorf("fixes should win by a wide margin: %.0f vs %.0f API/s",
			enabled.Throughput, disabled.Throughput)
	}
	if disabled.Deadlocks < 50 {
		t.Errorf("unfixed app deadlocked only %d times", disabled.Deadlocks)
	}
	if enabled.Deadlocks > disabled.Deadlocks/20 {
		t.Errorf("fixed app still deadlocks heavily: %d vs %d", enabled.Deadlocks, disabled.Deadlocks)
	}
}

// TestFig11Shape checks the Shopizer result at high concurrency.
func TestFig11Shape(t *testing.T) {
	enabled := run(t, "shopizer", "all")
	disabled := run(t, "shopizer")
	t.Logf("enable all: %.0f API/s, %d deadlocks; disable all: %.0f API/s, %d deadlocks",
		enabled.Throughput, enabled.Deadlocks, disabled.Throughput, disabled.Deadlocks)
	if enabled.Throughput < disabled.Throughput {
		t.Errorf("fixes should win at 64 clients: %.0f vs %.0f API/s",
			enabled.Throughput, disabled.Throughput)
	}
	if enabled.Deadlocks > 5 {
		t.Errorf("fixed app deadlocked %d times", enabled.Deadlocks)
	}
	if disabled.Deadlocks < 50 {
		t.Errorf("unfixed app deadlocked only %d times", disabled.Deadlocks)
	}
}

// TestDisableF2Hurts reproduces the paper's observation that f2 (the cart
// UPSERT) is Broadleaf's most valuable fix at high concurrency.
func TestDisableF2Hurts(t *testing.T) {
	all := run(t, "broadleaf", "all")
	noF2 := run(t, "broadleaf", "f1", "f3", "f4", "f5", "f6", "f7", "f8")
	t.Logf("all: %.0f API/s; disable f2: %.0f API/s (%d deadlocks)",
		all.Throughput, noF2.Throughput, noF2.Deadlocks)
	if noF2.Deadlocks == 0 {
		t.Error("disabling f2 should reintroduce cart-lock deadlocks")
	}
	if noF2.Throughput >= all.Throughput {
		t.Errorf("disabling f2 should cost throughput: %.0f vs %.0f", noF2.Throughput, all.Throughput)
	}
}

// TestRetryBackoffCountsCalls sanity-checks the harness accounting.
func TestRetryBackoffCountsCalls(t *testing.T) {
	obstest.CheckGoroutines(t)
	db, flow := open(t, "broadleaf", minidb.Config{}, "all")
	res := workload.Run(workload.Config{
		Clients:      2,
		Duration:     150 * time.Millisecond,
		RetryBackoff: time.Millisecond,
		Seed:         1,
	}, db, flow)
	if res.APICalls == 0 {
		t.Error("no API calls recorded")
	}
	if res.Throughput <= 0 {
		t.Error("throughput not computed")
	}
	if res.Clients != 2 {
		t.Errorf("clients = %d", res.Clients)
	}
}

// TestRetriesCountedUnderContention drives a contended unfixed app and
// checks the retry-burn accounting the fixgain experiment reports: a
// deadlock-victim or timed-out call re-attempted under RetryBackoff
// must be counted in Retries, and fixing the planted classes must
// reduce that burn. Every client has exited when Run returns.
func TestRetriesCountedUnderContention(t *testing.T) {
	obstest.CheckGoroutines(t)
	spec := "gen:13,templates=3,modules=1,tables=2,rows=4,classes=f2:1+f10:1"
	run := func(fixed ...string) workload.Result {
		db, flow := open(t, spec, dbConfig(), fixed...)
		return workload.Run(workload.Config{
			Clients:      8,
			Duration:     400 * time.Millisecond,
			RetryBackoff: time.Millisecond,
			Seed:         42,
		}, db, flow)
	}
	unfixed := run()
	fixed := run("f2", "f10")
	t.Logf("unfixed: %d calls, %d retries, %d deadlocks; fixed: %d calls, %d retries, %d deadlocks",
		unfixed.APICalls, unfixed.Retries, unfixed.Deadlocks,
		fixed.APICalls, fixed.Retries, fixed.Deadlocks)
	if unfixed.Deadlocks == 0 {
		t.Error("unfixed corpus never deadlocked — no contention to measure")
	}
	if unfixed.Retries == 0 {
		t.Error("deadlock victims were not counted as retries")
	}
	if fixed.Retries >= unfixed.Retries && unfixed.Retries > 0 {
		t.Errorf("fixing the planted classes should cut retry burn: %d -> %d",
			unfixed.Retries, fixed.Retries)
	}
}

// TestStoragePinned pins what the statement path stores, not just how it
// locks: one client walks Broadleaf's flow for 2,000 calls at seed 7 with
// the engine off, and the unit tests of gen:7,templates=96 run natively;
// the digest covers every table's rows in primary-key order, each cell by
// its nullness, kind and rendering. It was recorded while rows and index
// keys were still Datum slices.
func TestStoragePinned(t *testing.T) {
	want := map[string]string{
		"broadleaf":          "d6c72c822b0655ae",
		"gen:7,templates=96": "60992b15608bcd09",
	}
	for _, spec := range []string{"broadleaf", "gen:7,templates=96"} {
		app, err := apps.Open(spec, apps.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if spec == "broadleaf" {
			next := app.Flow()(1, rand.New(rand.NewSource(7)))
			e := concolic.New(concolic.ModeOff)
			for i := 0; i < 2000; i++ {
				if _, err := next()(e); err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
			}
		} else if _, err := appkit.Collect(app.UnitTests(), concolic.ModeOff); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, tbl := range app.Schema().Tables() {
			fmt.Fprintf(h, "%s\n", tbl.Name)
			for _, row := range app.DB().TableRows(tbl.Name) {
				for _, d := range row {
					fmt.Fprintf(h, "%t %d %s|", d.Null, d.Kind, d)
				}
				fmt.Fprintln(h)
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != want[spec] {
			t.Errorf("%s: storage digest %s, want %s", spec, got, want[spec])
		}
	}
}
