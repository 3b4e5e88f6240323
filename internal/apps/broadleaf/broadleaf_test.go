package broadleaf

import (
	"fmt"
	"testing"

	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/core/coretest"
	"weseer/internal/minidb"
	"weseer/internal/sqlast"
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

func collect(t *testing.T, fixes ...string) (*App, []*trace.Trace) {
	t.Helper()
	app := newApp(t, fixes...)
	traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
	if err != nil {
		t.Fatal(err)
	}
	return app, traces
}

// TestTableIInvocations checks the Table I unit-test inventory: seven
// traces, one per API invocation, with the Add paths diverging.
func TestTableIInvocations(t *testing.T) {
	_, traces := collect(t)
	want := []string{"Register", "Add1", "Add2", "Add3", "Ship", "Payment", "Checkout"}
	if len(traces) != len(want) {
		t.Fatalf("traces = %d, want %d", len(traces), len(want))
	}
	for i, w := range want {
		if traces[i].API != w {
			t.Errorf("trace %d = %s, want %s", i, traces[i].API, w)
		}
	}
	// The three Add invocations take different code paths, so their
	// statement mixes differ.
	if traces[1].Stats.Statements == traces[2].Stats.Statements &&
		traces[2].Stats.Statements == traces[3].Stats.Statements {
		t.Errorf("Add1/Add2/Add3 statement counts identical (%d): paths did not diverge",
			traces[1].Stats.Statements)
	}
	for _, tr := range traces {
		if len(tr.Inputs) == 0 {
			t.Errorf("trace %s has no symbolic inputs", tr.API)
		}
		if tr.Stats.PathConds == 0 {
			t.Errorf("trace %s recorded no path conditions", tr.API)
		}
	}
}

// TestDiagnosisFindsTableII runs the full WeSEER pipeline on the unfixed
// application and checks that every Broadleaf deadlock of Table II
// (d1–d13) is reported.
func TestDiagnosisFindsTableII(t *testing.T) {
	_, traces := collect(t)
	res := coretest.Analyze(t, Schema(), traces)
	found := map[string]int{}
	for _, d := range res.Deadlocks {
		found[Classify(d)]++
	}
	for _, exp := range Expectations() {
		if found[exp.ID] == 0 {
			t.Errorf("%s (%s; fix %s) not reported", exp.ID, exp.Desc, exp.Fix)
		}
	}
	if found[""] > 0 {
		t.Errorf("%d reports did not classify", found[""])
	}
	// Every confirmed deadlock carries a reproducing model.
	for _, d := range res.Deadlocks {
		if d.Model == nil {
			t.Errorf("deadlock %s—%s has no model", d.APIs[0], d.APIs[1])
		}
	}
}

// TestCoarseBaselineExplodes compares the STEPDAD/REDACT-style coarse
// baseline against the catalog size: it must report far more cycles than
// the 13 confirmed deadlocks (the paper's 18,384-vs-18 observation).
func TestCoarseBaselineExplodes(t *testing.T) {
	_, traces := collect(t)
	res := coretest.Analyze(t, Schema(), traces, core.WithCoarseOnly())
	if res.Stats.CoarseCycles < 10*len(Expectations()) {
		t.Errorf("coarse baseline found only %d cycles; expected an explosion vs %d cataloged",
			res.Stats.CoarseCycles, len(Expectations()))
	}
	if res.Stats.GroupsSolved != 0 {
		t.Error("baseline must not use the solver")
	}
}

// TestFixedAppShrinksReports re-runs diagnosis on the fully fixed
// application. The gap-lock mechanisms (empty SELECT + INSERT in one
// transaction) disappear from the traces, so the report count drops
// substantially; the paper validates fixes at runtime (Figs. 10/11)
// because statically, conflicts on application-generated keys remain
// conservatively reportable.
func TestFixedAppShrinksReports(t *testing.T) {
	_, unfixedTraces := collect(t)
	unfixed := coretest.Analyze(t, Schema(), unfixedTraces)
	_, fixedTraces := collect(t, "all")
	fixed := coretest.Analyze(t, Schema(), fixedTraces)

	found := map[string]int{}
	for _, d := range fixed.Deadlocks {
		found[Classify(d)]++
	}
	// d1's merge SELECT is gone entirely: no Customer cycle can form.
	if found["d1"] != 0 {
		t.Errorf("d1 still reported (%d) after f1", found["d1"])
	}
	// d2's check-then-insert became one UPSERT: the CartLock range-lock
	// cycle is gone.
	if found["d2"] != 0 {
		t.Errorf("d2 still reported (%d) after f2", found["d2"])
	}
	if len(fixed.Deadlocks) >= len(unfixed.Deadlocks) {
		t.Errorf("fixes did not shrink reports: %d -> %d", len(unfixed.Deadlocks), len(fixed.Deadlocks))
	}
}

func stmtsOf(tr *trace.Trace) []*trace.Stmt { return tr.AllStmts() }

// TestF1PersistDropsMergeSelect: with f1 the Register transaction issues
// only the INSERT (no merge SELECT).
func TestF1PersistDropsMergeSelect(t *testing.T) {
	_, unfixed := collect(t)
	_, fixed := collect(t, "all")
	countKind := func(tr *trace.Trace, k sqlast.StmtKind) int {
		n := 0
		for _, s := range stmtsOf(tr) {
			if s.Parsed.Kind() == k {
				n++
			}
		}
		return n
	}
	if got := countKind(unfixed[0], sqlast.KindSelect); got != 1 {
		t.Errorf("unfixed Register SELECTs = %d, want 1 (merge)", got)
	}
	if got := countKind(fixed[0], sqlast.KindSelect); got != 0 {
		t.Errorf("fixed Register SELECTs = %d, want 0 (persist)", got)
	}
}

// TestF2Upsert: with f2 the cart lock is one UPSERT statement.
func TestF2Upsert(t *testing.T) {
	_, fixed := collect(t, "all")
	add2 := fixed[2]
	var sawUpsert bool
	for _, s := range stmtsOf(add2) {
		if s.Parsed.Kind() == sqlast.KindUpsert {
			sawUpsert = true
		}
	}
	if !sawUpsert {
		t.Error("fixed Add2 has no UPSERT statement")
	}
}

// TestF3MovesSelectToSeparateTxn: with f3 the order-item existence SELECT
// runs in a different transaction from the INSERT.
func TestF3MovesSelectToSeparateTxn(t *testing.T) {
	_, unfixed := collect(t)
	_, fixed := collect(t, "all")
	locate := func(tr *trace.Trace) (selTxn, insTxn int) {
		selTxn, insTxn = -1, -1
		for _, txn := range tr.Txns {
			for _, s := range txn.Stmts {
				if s.Parsed.Kind() == sqlast.KindSelect && len(s.Parsed.Tables()) == 1 && s.Parsed.Tables()[0] == "OrderItem" {
					selTxn = txn.ID
				}
				if s.Parsed.Kind() == sqlast.KindInsert && s.Parsed.WriteTable() == "OrderItem" {
					insTxn = txn.ID
				}
			}
		}
		return
	}
	us, ui := locate(unfixed[2]) // Add2
	if us == -1 || ui == -1 || us != ui {
		t.Errorf("unfixed Add2: SELECT txn %d, INSERT txn %d — must share a transaction", us, ui)
	}
	fs, fi := locate(fixed[2])
	if fs == -1 || fi == -1 || fs == fi {
		t.Errorf("fixed Add2: SELECT txn %d, INSERT txn %d — must be separated", fs, fi)
	}
}

// TestF4FlushReordersUpdates: with f4 the offer-usage UPDATE precedes the
// audit SELECT in send order; without it, write-behind defers the UPDATE
// past commit.
func TestF4FlushReordersUpdates(t *testing.T) {
	_, unfixed := collect(t)
	_, fixed := collect(t, "all")
	orderOf := func(tr *trace.Trace) (updSeq, selSeq int) {
		updSeq, selSeq = -1, -1
		for _, s := range stmtsOf(tr) {
			if s.Parsed.Kind() == sqlast.KindUpdate && s.Parsed.WriteTable() == "Offer" && updSeq == -1 {
				updSeq = s.Seq
			}
			if s.Parsed.Kind() == sqlast.KindSelect && s.Parsed.Tables()[0] == "OfferStat" && selSeq == -1 {
				selSeq = s.Seq
			}
		}
		return
	}
	uu, usel := orderOf(unfixed[2])
	if uu == -1 || usel == -1 || uu < usel {
		t.Errorf("unfixed Add2: UPDATE Offer at %d should be sent after stat SELECT at %d (write-behind)", uu, usel)
	}
	fu, fsel := orderOf(fixed[2])
	if fu == -1 || fsel == -1 || fu > fsel {
		t.Errorf("fixed Add2: UPDATE Offer at %d should precede stat SELECT at %d (early flush)", fu, fsel)
	}
}

// TestF6InsertBeforeScan: with f6 Ship's address INSERT precedes any
// Address SELECT; without it the range scan comes first.
func TestF6InsertBeforeScan(t *testing.T) {
	_, unfixed := collect(t)
	_, fixed := collect(t, "all")
	orderOf := func(tr *trace.Trace) (selSeq, insSeq int) {
		selSeq, insSeq = -1, -1
		for _, s := range stmtsOf(tr) {
			if s.Parsed.Kind() == sqlast.KindSelect && s.Parsed.Tables()[0] == "Address" && selSeq == -1 {
				selSeq = s.Seq
			}
			if s.Parsed.Kind() == sqlast.KindInsert && s.Parsed.WriteTable() == "Address" && insSeq == -1 {
				insSeq = s.Seq
			}
		}
		return
	}
	us, ui := orderOf(unfixed[4]) // Ship
	if !(us != -1 && ui != -1 && us < ui) {
		t.Errorf("unfixed Ship: scan (%d) must precede insert (%d)", us, ui)
	}
	fs, fi := orderOf(fixed[4])
	if !(fs != -1 && fi != -1 && fi < fs) {
		t.Errorf("fixed Ship: insert (%d) must precede point select (%d)", fi, fs)
	}
}

// TestCheckoutMatchesFig1 verifies the Fig. 1 trace structure: the order
// read is cache-served (no SELECT on Orders inside the checkout txn), the
// item list loads via the three-way join, and the product update's
// parameters flow from the join's symbolic results.
func TestCheckoutMatchesFig1(t *testing.T) {
	_, traces := collect(t)
	ck := traces[6]
	mainTxn := ck.Txns[len(ck.Txns)-1]
	var joins, orderSelects, productUpdates int
	for _, s := range mainTxn.Stmts {
		switch {
		case s.Parsed.Kind() == sqlast.KindSelect && len(s.Parsed.Tables()) == 3:
			joins++
		case s.Parsed.Kind() == sqlast.KindSelect && s.Parsed.Tables()[0] == "Orders":
			orderSelects++
		case s.Parsed.Kind() == sqlast.KindUpdate && s.Parsed.WriteTable() == "Product":
			productUpdates++
			// Q6's parameters are symbolic expressions over Q4 results.
			if s.Params[0].Sym == nil {
				t.Error("product update parameter lost its symbolic value")
			}
		}
	}
	if joins != 1 {
		t.Errorf("checkout txn has %d 3-way joins, want 1 (Q4)", joins)
	}
	if orderSelects != 0 {
		t.Errorf("checkout txn SELECTs Orders %d times; the read cache should serve it", orderSelects)
	}
	if productUpdates == 0 {
		t.Error("no buffered product update (Q6) recorded")
	}
}

// TestRuntimeSmokeAllFixes drives the APIs natively (ModeOff) for several
// customers; everything must succeed with zero deadlocks.
func TestRuntimeSmokeAllFixes(t *testing.T) {
	app := newApp(t, "all")
	e := concolic.New(concolic.ModeOff)
	for c := 0; c < 5; c++ {
		if _, err := app.Register(e,
			concolic.Str(fmt.Sprintf("user%d", c)), concolic.Str("u@x"), concolic.Str("p"), concolic.Str("p")); err != nil {
			t.Fatalf("register %d: %v", c, err)
		}
		cust := concolic.Int(int64(c + 1))
		for _, pid := range []int64{1, 2, 2} {
			if err := app.Add(e, cust, concolic.Int(pid)); err != nil {
				t.Fatalf("add(%d,%d): %v", c, pid, err)
			}
		}
		if err := app.Ship(e, cust, concolic.Str("nyc"), concolic.Str("555")); err != nil {
			t.Fatalf("ship %d: %v", c, err)
		}
		if err := app.Payment(e, cust, concolic.Str("addr"), concolic.Str("555")); err != nil {
			t.Fatalf("payment %d: %v", c, err)
		}
		if err := app.Checkout(e, cust); err != nil {
			t.Fatalf("checkout %d: %v", c, err)
		}
	}
	if dl := app.DB().StatsSnapshot().Deadlocks; dl != 0 {
		t.Errorf("sequential run hit %d deadlocks", dl)
	}
}

// TestRegisterValidation exercises the error paths (their path conditions
// appear in traces as the branch negations).
func TestRegisterValidation(t *testing.T) {
	app := newApp(t, "all")
	e := concolic.New(concolic.ModeOff)
	if _, err := app.Register(e, concolic.Str("u"), concolic.Str("e"), concolic.Str("a"), concolic.Str("b")); err != ErrPasswordMismatch {
		t.Errorf("mismatch: %v", err)
	}
	if _, err := app.Register(e, concolic.Str(""), concolic.Str("e"), concolic.Str("p"), concolic.Str("p")); err != ErrBadUsername {
		t.Errorf("empty username: %v", err)
	}
}

// TestCheckoutOutOfStock: checkout fails when a product's stock is
// insufficient, and the transaction rolls back.
func TestCheckoutOutOfStock(t *testing.T) {
	app := newApp(t, "all")
	e := concolic.New(concolic.ModeOff)
	cust := concolic.Int(1)
	if err := app.Add(e, cust, concolic.Int(1)); err != nil {
		t.Fatal(err)
	}
	// Drain the product's stock directly.
	s := app.session(e)
	if err := s.Transactional(func() error {
		p := s.Find("Product", concolic.Int(1))
		s.Set(p, "QTY", concolic.Int(0))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := app.Checkout(e, cust); err != ErrOutOfStock {
		t.Errorf("checkout with empty stock: %v", err)
	}
}

// TestConcretePlansKeepCatalog runs the analyzer with the Sec. V-D
// future-work refinement (lock modeling restricted to recorded execution
// plans): every cataloged deadlock must survive, with no more reports
// than the conservative all-possible-indexes model.
func TestConcretePlansKeepCatalog(t *testing.T) {
	_, traces := collect(t)
	conservative := coretest.Analyze(t, Schema(), traces)
	planned := coretest.Analyze(t, Schema(), traces, core.WithConcretePlans())
	found := map[string]int{}
	for _, d := range planned.Deadlocks {
		found[Classify(d)]++
	}
	for _, exp := range Expectations() {
		if found[exp.ID] == 0 {
			t.Errorf("%s lost under concrete-plan modeling", exp.ID)
		}
	}
	if len(planned.Deadlocks) > len(conservative.Deadlocks) {
		t.Errorf("concrete plans grew the report set: %d > %d",
			len(planned.Deadlocks), len(conservative.Deadlocks))
	}
}
