package shopizer

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/minidb"
	"weseer/internal/trace"
)

// newApp opens the application with the named fixes enabled.
func newApp(t *testing.T, fixes ...string) *App {
	t.Helper()
	app, err := New(fixes, minidb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func collect(t *testing.T, fixes ...string) []*trace.Trace {
	t.Helper()
	app := newApp(t, fixes...)
	traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
	if err != nil {
		t.Fatal(err)
	}
	return traces
}

func TestTableIInvocations(t *testing.T) {
	traces := collect(t)
	want := []string{"Register", "Add1", "Add2", "Add3", "Ship", "Checkout"}
	if len(traces) != len(want) {
		t.Fatalf("traces = %d, want %d (Shopizer has no Payment API)", len(traces), len(want))
	}
	for i, w := range want {
		if traces[i].API != w {
			t.Errorf("trace %d = %s, want %s", i, traces[i].API, w)
		}
	}
}

// TestDiagnosisFindsTableII: the unfixed Shopizer model yields every
// cataloged deadlock d14–d18, all of them on the Product table.
func TestDiagnosisFindsTableII(t *testing.T) {
	traces := collect(t)
	res, err := core.NewAnalyzer(Schema()).AnalyzeContext(context.Background(), traces)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]int{}
	for _, d := range res.Deadlocks {
		id := Classify(d)
		found[id]++
		if id >= "d14" && id <= "d18" {
			if d.Cycle.Table1 != "Product" && d.Cycle.Table2 != "Product" {
				t.Errorf("%s not on Product: [%s %s]", id, d.Cycle.Table1, d.Cycle.Table2)
			}
		}
	}
	for _, exp := range Expectations() {
		if found[exp.ID] == 0 {
			t.Errorf("%s (%s; fix %s) not reported", exp.ID, exp.Desc, exp.Fix)
		}
	}
}

// TestOrderingDiffersWithoutFixes: the commit phase's statement order is
// descending by product id without f10, ascending with it.
func TestOrderingDiffersWithoutFixes(t *testing.T) {
	commitOrder := func(fixes ...string) []int64 {
		traces := collect(t, fixes...)
		var ids []int64
		for _, s := range traces[5].AllStmts() { // Checkout
			if s.Parsed.WriteTable() == "Product" && siteOf(s) == siteCommitUpdate {
				ids = append(ids, s.Params[1].Concrete.I)
			}
		}
		return ids
	}
	un := commitOrder()
	if len(un) != 2 || un[0] != 2 || un[1] != 1 {
		t.Errorf("unfixed commit order = %v, want [2 1] (most recent first)", un)
	}
	fx := commitOrder("all")
	if len(fx) != 2 || fx[0] != 1 || fx[1] != 2 {
		t.Errorf("fixed commit order = %v, want [1 2] (ascending)", fx)
	}
}

// TestRuntimeUpgradeDeadlock reproduces d14 at runtime: two concurrent
// unfixed pricing transactions over the same product upgrade-deadlock;
// with f9 the application lock serializes them.
func TestRuntimeUpgradeDeadlock(t *testing.T) {
	run := func(fixes ...string) int64 {
		app := newApp(t, fixes...)
		e := concolic.New(concolic.ModeOff)
		// Eight customers share products 1 and 2 in their carts; the
		// checkout transaction's pricing and committing phases overlap
		// across goroutines.
		const customers = 8
		for c := int64(1); c <= customers; c++ {
			for _, pid := range []int64{2, 1} {
				if err := app.Add(e, concolic.Int(c), concolic.Int(pid)); err != nil {
					t.Fatal(err)
				}
			}
		}
		var wg sync.WaitGroup
		for c := int64(1); c <= customers; c++ {
			wg.Add(1)
			go func(c int64) {
				defer wg.Done()
				eg := concolic.New(concolic.ModeOff)
				for i := 0; i < 100; i++ {
					app.Checkout(eg, concolic.Int(c)) // retry through deadlocks
				}
			}(c)
		}
		wg.Wait()
		return app.DB().StatsSnapshot().Deadlocks
	}
	if dl := run(); dl == 0 {
		t.Error("unfixed concurrent pricing never deadlocked")
	}
	if dl := run("all"); dl != 0 {
		t.Errorf("fixed concurrent pricing deadlocked %d times", dl)
	}
}

// TestRuntimeSmokeAllFixes drives the full API sequence natively.
func TestRuntimeSmokeAllFixes(t *testing.T) {
	app := newApp(t, "all")
	e := concolic.New(concolic.ModeOff)
	for c := int64(1); c <= 4; c++ {
		cust := concolic.Int(c)
		if _, err := app.Register(e, concolic.Str(fmt.Sprintf("u%d", c)), concolic.Str("e@x")); err != nil {
			t.Fatal(err)
		}
		for _, pid := range []int64{2, 1, 1} {
			if err := app.Add(e, cust, concolic.Int(pid)); err != nil {
				t.Fatal(err)
			}
		}
		if err := app.Ship(e, cust, concolic.Str("sfo")); err != nil {
			t.Fatal(err)
		}
		if err := app.Checkout(e, cust); err != nil {
			t.Fatal(err)
		}
	}
	if dl := app.DB().StatsSnapshot().Deadlocks; dl != 0 {
		t.Errorf("sequential run hit %d deadlocks", dl)
	}
	// Stock decremented: product 1 got 2 units × 4 customers.
	rows := app.DB().TableRows("Product")
	if got := rows[0][1].I; got != 1_000_000-8 {
		t.Errorf("product 1 qty = %d, want %d", got, 1_000_000-8)
	}
}

func TestErrorPaths(t *testing.T) {
	app := newApp(t, "all")
	e := concolic.New(concolic.ModeOff)
	if _, err := app.Register(e, concolic.Str(""), concolic.Str("x")); err != ErrBadUsername {
		t.Errorf("empty username: %v", err)
	}
	if err := app.Ship(e, concolic.Int(9), concolic.Str("sfo")); err != ErrNoCart {
		t.Errorf("ship without cart: %v", err)
	}
	if err := app.Checkout(e, concolic.Int(9)); err != ErrNoCart {
		t.Errorf("checkout without cart: %v", err)
	}
	if err := app.Add(e, concolic.Int(1), concolic.Int(999)); err != ErrUnknownInput {
		t.Errorf("add unknown product: %v", err)
	}
}
