package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"weseer/internal/minidb"
	"weseer/internal/schema"
	"weseer/internal/smt"
	"weseer/internal/sqlast"
	"weseer/internal/trace"
)

func fig1Schema() *schema.Schema {
	s := schema.New()
	s.AddTable("Orders").
		Col("ID", schema.Int).
		PrimaryKey("ID")
	s.AddTable("Product").
		Col("ID", schema.Int).
		Col("QTY", schema.Int).
		PrimaryKey("ID")
	s.AddTable("OrderItem").
		Col("ID", schema.Int).
		Col("O_ID", schema.Int).
		Col("P_ID", schema.Int).
		Col("QTY", schema.Int).
		PrimaryKey("ID").
		Index("idx_oi_o", "O_ID")
	s.AddTable("Users").
		Col("ID", schema.Int).
		Col("EMAIL", schema.Varchar).
		PrimaryKey("ID")
	return s
}

func mkStmt(seq int, sql string, syms []smt.Expr, res *trace.Result) *trace.Stmt {
	st := &trace.Stmt{
		Seq: seq, TxnID: 1, SQL: sql, Parsed: sqlast.MustParse(sql),
		Trigger: trace.CodeLoc{Frames: []trace.Frame{{Func: "app.fn", File: "app.go", Line: 10 + seq}}},
	}
	for i, s := range syms {
		st.Params = append(st.Params, trace.Param{Sym: s, Concrete: minidb.I64(int64(i + 1))})
	}
	st.Res = res
	return st
}

// finishOrderTrace builds the paper's Fig. 3 trace: Q4 (join SELECT, one
// row) followed by Q6 (UPDATE Product keyed by the fetched product ID),
// with the path conditions of Fig. 1.
func finishOrderTrace() *trace.Trace {
	orderID := smt.NewVar("order_id", smt.SortInt)
	pID := smt.NewVar("res0.row0.p.ID", smt.SortInt)
	pQTY := smt.NewVar("res0.row0.p.QTY", smt.SortInt)
	oiQTY := smt.NewVar("res0.row0.oi.QTY", smt.SortInt)

	q4 := mkStmt(0,
		`SELECT * FROM OrderItem oi JOIN Orders o ON o.ID = oi.O_ID JOIN Product p ON p.ID = oi.P_ID WHERE oi.O_ID = ?`,
		[]smt.Expr{orderID},
		&trace.Result{
			Cols: []string{"oi.ID", "oi.O_ID", "oi.P_ID", "oi.QTY", "o.ID", "p.ID", "p.QTY"},
			Sym: [][]smt.Var{{
				{Name: "res0.row0.oi.ID", S: smt.SortInt},
				{Name: "res0.row0.oi.O_ID", S: smt.SortInt},
				{Name: "res0.row0.oi.P_ID", S: smt.SortInt},
				{Name: "res0.row0.oi.QTY", S: smt.SortInt},
				{Name: "res0.row0.o.ID", S: smt.SortInt},
				{Name: "res0.row0.p.ID", S: smt.SortInt},
				{Name: "res0.row0.p.QTY", S: smt.SortInt},
			}},
		})
	q6 := mkStmt(1, `UPDATE Product SET QTY = ? WHERE ID = ?`,
		[]smt.Expr{smt.Sub(pQTY, oiQTY), pID}, nil)

	return &trace.Trace{
		API:    "Checkout",
		Inputs: []trace.Input{{Name: "order_id", Sort: smt.SortInt, Concrete: smt.IntValue(1)}},
		Txns:   []*trace.Txn{{ID: 1, Committed: true, Stmts: []*trace.Stmt{q4, q6}}},
		PathConds: []trace.PathCond{
			{AfterStmt: 0, Cond: smt.Ne(orderID, smt.Int(-1))},
			{AfterStmt: 1, Cond: smt.Ge(pQTY, oiQTY)},
		},
	}
}

// mergeTrace is the d1 shape: empty SELECT (range lock) then INSERT of
// the same key.
func mergeTrace() *trace.Trace {
	uid := smt.NewVar("user_id", smt.SortInt)
	sel := mkStmt(0, `SELECT * FROM Users t WHERE t.ID = ?`, []smt.Expr{uid},
		&trace.Result{Cols: []string{"t.ID", "t.EMAIL"}, Empty: true})
	ins := mkStmt(1, `INSERT INTO Users (ID, EMAIL) VALUES (?, ?)`,
		[]smt.Expr{uid, smt.NewVar("email", smt.SortString)}, nil)
	return &trace.Trace{
		API:    "Register",
		Inputs: []trace.Input{{Name: "user_id", Sort: smt.SortInt, Concrete: smt.IntValue(9)}},
		Txns:   []*trace.Txn{{ID: 1, Committed: true, Stmts: []*trace.Stmt{sel, ins}}},
	}
}

// readOnlyTrace cannot participate in any deadlock.
func readOnlyTrace() *trace.Trace {
	sel := mkStmt(0, `SELECT * FROM Product p WHERE p.ID = ?`,
		[]smt.Expr{smt.NewVar("pid", smt.SortInt)},
		&trace.Result{Cols: []string{"p.ID", "p.QTY"}, Sym: [][]smt.Var{{
			{Name: "res0.row0.p.ID", S: smt.SortInt},
			{Name: "res0.row0.p.QTY", S: smt.SortInt},
		}}})
	return &trace.Trace{
		API:  "Browse",
		Txns: []*trace.Txn{{ID: 1, Committed: true, Stmts: []*trace.Stmt{sel}}},
	}
}

// analyze runs the full diagnosis over the Fig. 1 schema.
func analyze(t *testing.T, traces []*trace.Trace, opts ...Option) *Result {
	t.Helper()
	res, err := NewAnalyzer(fig1Schema(), opts...).AnalyzeContext(context.Background(), traces)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFinishOrderDeadlockFound(t *testing.T) {
	// The paper's running example: two concurrent finishOrder instances
	// deadlock on Product (Fig. 4's cycle, confirmed as in Fig. 9).
	res := analyze(t, []*trace.Trace{finishOrderTrace()})
	if len(res.Deadlocks) != 1 {
		t.Fatalf("deadlocks = %d\n%s", len(res.Deadlocks), res.Render())
	}
	d := res.Deadlocks[0]
	if d.APIs[0] != "Checkout" || d.APIs[1] != "Checkout" {
		t.Errorf("APIs = %v", d.APIs)
	}
	if d.Model == nil {
		t.Fatal("confirmed deadlock must carry a model")
	}
	// In the model both instances operate on the same product row.
	p1 := d.Model.Vars["A1.res0.row0.p.ID"]
	p2 := d.Model.Vars["A2.res0.row0.p.ID"]
	if !p1.Equal(p2) {
		t.Errorf("instances touch different products in model: %s vs %s", p1, p2)
	}
	// Path conditions hold in the model: order ids differ from -1.
	if d.Model.Vars["A1.order_id"].I == -1 {
		t.Errorf("model violates path condition: %s", d.Model)
	}
}

func TestMergeGapDeadlockFound(t *testing.T) {
	res := analyze(t, []*trace.Trace{mergeTrace()})
	if len(res.Deadlocks) != 1 {
		t.Fatalf("deadlocks = %d\n%s", len(res.Deadlocks), res.Render())
	}
	if res.Deadlocks[0].Cycle.Table1 != "Users" {
		t.Errorf("conflict table = %s", res.Deadlocks[0].Cycle.Table1)
	}
}

func TestReadOnlyNoDeadlock(t *testing.T) {
	res := analyze(t, []*trace.Trace{readOnlyTrace()})
	if len(res.Deadlocks) != 0 {
		t.Fatalf("read-only trace produced deadlocks:\n%s", res.Render())
	}
	if res.Stats.PairsAfterPhase1 != 0 {
		t.Errorf("phase 1 should filter the read-only pair: %+v", res.Stats)
	}
}

func TestPhase1Filters(t *testing.T) {
	res := analyze(t, []*trace.Trace{finishOrderTrace(), readOnlyTrace()})
	// Pairs: (fo,fo), (fo,ro), (ro,ro) = 3; only (fo,fo) survives.
	if res.Stats.Pairs != 3 || res.Stats.PairsAfterPhase1 != 1 {
		t.Errorf("stats = %+v", res.Stats)
	}
	if len(res.Deadlocks) != 1 {
		t.Errorf("deadlocks = %d", len(res.Deadlocks))
	}
}

func TestCoarseOnlyBaseline(t *testing.T) {
	// The STEPDAD/REDACT-style baseline reports raw coarse cycles without
	// lock modeling or SMT checking.
	traces := []*trace.Trace{finishOrderTrace(), mergeTrace()}
	fres := analyze(t, traces)
	cres := analyze(t, traces, WithCoarseOnly())
	if cres.Stats.CoarseCycles == 0 {
		t.Fatal("baseline found no coarse cycles")
	}
	if cres.Stats.GroupsSolved != 0 {
		t.Error("coarse-only mode must not invoke the solver")
	}
	if len(cres.Deadlocks) < len(fres.Deadlocks) {
		t.Errorf("baseline (%d) reports fewer than fine mode (%d)", len(cres.Deadlocks), len(fres.Deadlocks))
	}
}

func TestPathConditionEliminatesFalsePositive(t *testing.T) {
	// Identical structure to finishOrder, but a path condition pins the
	// updated product to a constant while another clause pins the other
	// instance's product elsewhere — making the cycle UNSAT.
	tr := finishOrderTrace()
	pid := smt.NewVar("res0.row0.p.ID", smt.SortInt)
	oid := smt.NewVar("order_id", smt.SortInt)
	// Each instance's product ID equals its order id; instance order ids
	// are forced to distinct parities via the input constraints below.
	tr.PathConds = append(tr.PathConds,
		trace.PathCond{AfterStmt: 1, Cond: smt.Eq(pid, oid)},
	)

	// First, without the distinctness constraint the deadlock survives.
	res := analyze(t, []*trace.Trace{tr})
	if len(res.Deadlocks) != 1 {
		t.Fatalf("expected the base deadlock, got %d", len(res.Deadlocks))
	}

	// Now add contradictory per-instance ranges: A1 below 100, A2 at or
	// above 100; the same row can no longer be shared.
	tr2 := finishOrderTrace()
	tr2.API = "CheckoutLow"
	tr2.PathConds = append(tr2.PathConds,
		trace.PathCond{AfterStmt: 1, Cond: smt.Eq(pid, oid)},
	)
	// Instance-asymmetric conditions cannot be expressed per-instance in
	// a single trace (both instances share path conditions), so check the
	// phase directly: constrain the product ID to a single constant —
	// both instances then ARE allowed to collide on it, deadlock remains;
	// then constrain instances apart via disjoint constants, which is
	// impossible within one trace and correctly keeps the deadlock.
	tr3 := finishOrderTrace()
	tr3.PathConds = append(tr3.PathConds,
		trace.PathCond{AfterStmt: 1, Cond: smt.Eq(pid, smt.Int(7))},
	)
	res3 := analyze(t, []*trace.Trace{tr3})
	if len(res3.Deadlocks) != 1 {
		t.Fatalf("constant product still deadlocks: got %d", len(res3.Deadlocks))
	}

	// A genuinely contradictory path condition kills the cycle.
	tr4 := finishOrderTrace()
	tr4.PathConds = append(tr4.PathConds,
		trace.PathCond{AfterStmt: 1, Cond: smt.Lt(pid, smt.Int(0))},
		trace.PathCond{AfterStmt: 1, Cond: smt.Gt(pid, smt.Int(0))},
	)
	res4 := analyze(t, []*trace.Trace{tr4})
	if len(res4.Deadlocks) != 0 {
		t.Fatalf("UNSAT path conditions still reported: %d", len(res4.Deadlocks))
	}
	if res4.Stats.SolverUNSAT == 0 {
		t.Errorf("solver should have refuted cycles: %+v", res4.Stats)
	}
}

// TestPathCondsBefore: a cycle's formula takes the path conditions
// recorded before its statements and none recorded after. Contradictory
// conditions on the updated product refute the finishOrder cycle when
// they are recorded before Q6 runs, and leave it standing when they are
// recorded once both statements have run.
func TestPathCondsBefore(t *testing.T) {
	pid := smt.NewVar("res0.row0.p.ID", smt.SortInt)
	for _, tc := range []struct {
		after int
		want  int
	}{{after: 1, want: 0}, {after: 2, want: 1}} {
		tr := finishOrderTrace()
		tr.PathConds = append(tr.PathConds,
			trace.PathCond{AfterStmt: tc.after, Cond: smt.Lt(pid, smt.Int(0))},
			trace.PathCond{AfterStmt: tc.after, Cond: smt.Gt(pid, smt.Int(0))},
		)
		res := analyze(t, []*trace.Trace{tr})
		if len(res.Deadlocks) != tc.want {
			t.Errorf("contradiction recorded after %d statements: %d deadlocks, want %d\n%s",
				tc.after, len(res.Deadlocks), tc.want, res.Render())
		}
	}
}

// CheckLockFilterIsExact pins that the lock-collision filter only ever
// drops what the solver would refute: for every coarse cycle of the traces,
// with and without WithConcretePlans, a C-edge the filter fails has the
// conflict condition smt.False, so the cycle formula is false. It returns
// how many cycles the filter dropped, summed over the two modes. Exported for the corpus test in
// package core_test, which (unlike this package) may import the apps.
func CheckLockFilterIsExact(t *testing.T, scm *schema.Schema, traces []*trace.Trace) (dropped int) {
	t.Helper()
	for _, opts := range [][]Option{nil, {WithConcretePlans()}} {
		r := NewAnalyzer(scm, opts...).newRun()
		chains, _, err := r.enumerateIndexed(context.Background(), traces)
		if err != nil {
			t.Fatal(err)
		}
		plans := r.opts.UseConcretePlans
		for _, ch := range chains {
			for _, cyc := range ch.cycles {
				edges := r.edges(cyc)
				pass := [2]bool{
					r.locks.PotentialConflict(cyc.S1b, cyc.S2a),
					r.locks.PotentialConflict(cyc.S2b, cyc.S1a),
				}
				for i, e := range edges {
					if !pass[i] && e.Cond != smt.False {
						t.Fatalf("plans=%v: filter drops %s, whose C-edge %d has the condition %s",
							plans, ch.key, i+1, e.Cond)
					}
				}
				if !pass[0] || !pass[1] {
					dropped++
				}
			}
		}
	}
	return dropped
}

// TestLockFilterIsExact runs the check on the fine-mode corpora of this
// package, where every C-edge's locks collide (the filter drops nothing);
// TestLockFilterIsExactOnCorpora runs it where the filter does drop.
func TestLockFilterIsExact(t *testing.T) {
	CheckLockFilterIsExact(t, fig1Schema(), pipelineTraces())
	CheckLockFilterIsExact(t, randSchema(4), randTraces(rand.New(rand.NewSource(3)), 10, 4))
}

func TestCrossAPIDeadlock(t *testing.T) {
	// Two different APIs writing each other's tables (d9/d17 shape).
	tr1 := finishOrderTrace()
	tr2 := finishOrderTrace()
	tr2.API = "Ship"
	res := analyze(t, []*trace.Trace{tr1, tr2})
	var sawCross bool
	for _, d := range res.Deadlocks {
		if d.APIs[0] != d.APIs[1] {
			sawCross = true
		}
	}
	if !sawCross {
		t.Errorf("no cross-API deadlock found:\n%s", res.Render())
	}
}

func TestRenderReport(t *testing.T) {
	res := analyze(t, []*trace.Trace{finishOrderTrace()})
	out := res.Render()
	for _, want := range []string{"Checkout", "UPDATE Product", "app.go", "input", "dbrow", "holds lock", "waits at"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestDedupFoldsCycles(t *testing.T) {
	res := analyze(t, []*trace.Trace{finishOrderTrace()})
	if len(res.Deadlocks) != 1 {
		t.Fatalf("deadlocks = %d", len(res.Deadlocks))
	}
	if res.Stats.CoarseCycles < res.Deadlocks[0].Count {
		t.Errorf("folded count %d exceeds coarse cycles %d", res.Deadlocks[0].Count, res.Stats.CoarseCycles)
	}
}
