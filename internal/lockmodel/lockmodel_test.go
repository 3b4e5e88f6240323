package lockmodel

import (
	"context"
	"slices"
	"strconv"
	"testing"

	"weseer/internal/minidb"
	"weseer/internal/schema"
	"weseer/internal/smt"
	"weseer/internal/solver"
	"weseer/internal/sqlast"
	"weseer/internal/trace"
)

// fig1Schema is the paper's running example schema.
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
		Index("idx_oi_o", "O_ID").
		Index("idx_oi_p", "P_ID")
	return s
}

const q4 = `SELECT * FROM OrderItem oi JOIN Orders o ON o.ID = oi.O_ID JOIN Product p ON p.ID = oi.P_ID WHERE oi.O_ID = ?`
const q6 = `UPDATE Product SET QTY = ? WHERE ID = ?`

func useSet(uses []IndexUse) map[string]bool {
	out := map[string]bool{}
	for _, u := range uses {
		name := "SCAN"
		if u.Index != nil {
			name = u.Index.Name
		}
		out[u.Alias+"/"+name] = true
	}
	return out
}

// TestInferQ4 reproduces Fig. 8: the possible indexes for Q4 are
// OrderItem's O_ID secondary (fed by the parameter) and the Orders and
// Product primary indexes (fed by OrderItem data) — but never OrderItem's
// P_ID secondary, which would require scanning Product first.
func TestInferQ4(t *testing.T) {
	scm := fig1Schema()
	uses := InferPossibleIndexes(sqlast.MustParse(q4), scm)
	got := useSet(uses)
	for _, want := range []string{"oi/idx_oi_o", "o/PRIMARY", "p/PRIMARY"} {
		if !got[want] {
			t.Errorf("missing expected index use %s (got %v)", want, got)
		}
	}
	if got["oi/idx_oi_p"] {
		t.Errorf("idx_oi_p must not be used (needs Product scanned first): %v", got)
	}
	if got["oi/SCAN"] || got["o/SCAN"] || got["p/SCAN"] {
		t.Errorf("no full scans expected: %v", got)
	}
}

func TestInferPointUpdate(t *testing.T) {
	scm := fig1Schema()
	uses := InferPossibleIndexes(sqlast.MustParse(q6), scm)
	if len(uses) != 1 || uses[0].Index == nil || uses[0].Index.Type != schema.Primary {
		t.Fatalf("uses = %+v", uses)
	}
	if len(uses[0].Preds) != 1 {
		t.Errorf("preds = %v", uses[0].Preds)
	}
}

func TestInferNoIndexFullScan(t *testing.T) {
	scm := fig1Schema()
	uses := InferPossibleIndexes(sqlast.MustParse(`SELECT * FROM Product p WHERE p.QTY > ?`), scm)
	if len(uses) != 1 || uses[0].Index != nil {
		t.Fatalf("uses = %+v", uses)
	}
}

func TestInferInsertAsKeyEquations(t *testing.T) {
	scm := fig1Schema()
	uses := InferPossibleIndexes(sqlast.MustParse(`INSERT INTO OrderItem (ID, O_ID, P_ID, QTY) VALUES (?, ?, ?, ?)`), scm)
	got := useSet(uses)
	// The inserted row's column equations make every index reachable.
	for _, want := range []string{"OrderItem/PRIMARY", "OrderItem/idx_oi_o", "OrderItem/idx_oi_p"} {
		if !got[want] {
			t.Errorf("missing %s in %v", want, got)
		}
	}
}

func TestGenSharedLocksPointQuery(t *testing.T) {
	scm := fig1Schema()
	st := sqlast.MustParse(`SELECT * FROM Product p WHERE p.ID = ?`)
	locks := GenSharedLocks(st, scm, "Product", false)
	if len(locks) != 1 {
		t.Fatalf("locks = %v", locks)
	}
	l := locks[0]
	if l.Gran != Row || l.Exclusive || l.Index.Type != schema.Primary {
		t.Errorf("lock = %v", l)
	}
}

func TestGenSharedLocksEmptyResult(t *testing.T) {
	// An empty result acquires RANGE locks to protect the empty read set
	// — the locks behind deadlock d1.
	scm := fig1Schema()
	st := sqlast.MustParse(`SELECT * FROM Product p WHERE p.ID = ?`)
	locks := GenSharedLocks(st, scm, "Product", true)
	if len(locks) != 1 || locks[0].Gran != Range {
		t.Fatalf("locks = %v", locks)
	}
	if len(locks[0].Preds) == 0 {
		t.Error("range lock lost its predicates")
	}
}

func TestGenSharedLocksSecondaryIndex(t *testing.T) {
	scm := fig1Schema()
	st := sqlast.MustParse(`SELECT * FROM OrderItem oi WHERE oi.O_ID = ?`)
	locks := GenSharedLocks(st, scm, "OrderItem", false)
	// Non-unique secondary: RANGE on the secondary plus ROW on the primary.
	var sawRange, sawPrimaryRow bool
	for _, l := range locks {
		if l.Gran == Range && l.Index.Name == "idx_oi_o" {
			sawRange = true
		}
		if l.Gran == Row && l.Index.Type == schema.Primary {
			sawPrimaryRow = true
		}
	}
	if !sawRange || !sawPrimaryRow {
		t.Errorf("locks = %v", locks)
	}
}

func TestGenSharedLocksTableFallback(t *testing.T) {
	scm := fig1Schema()
	st := sqlast.MustParse(`SELECT * FROM Product p WHERE p.QTY > ?`)
	locks := GenSharedLocks(st, scm, "Product", false)
	if len(locks) != 1 || locks[0].Gran != TableLock {
		t.Fatalf("locks = %v", locks)
	}
}

// TestGenSharedLocksSelfJoinAlias: a self-join no index serves locks its
// table whole under its first alias in sorted order, on every call.
func TestGenSharedLocksSelfJoinAlias(t *testing.T) {
	scm := fig1Schema()
	st := sqlast.MustParse(`SELECT * FROM Product z JOIN Product a ON a.QTY = z.QTY WHERE z.QTY > ?`)
	for range 100 {
		locks := GenSharedLocks(st, scm, "Product", false)
		if len(locks) != 1 || locks[0].Gran != TableLock || locks[0].Alias != "a" {
			t.Fatalf("locks = %+v, want one table lock under alias a", locks)
		}
	}
}

func TestGenExclusiveLocks(t *testing.T) {
	scm := fig1Schema()
	locks := GenExclusiveLocks(sqlast.MustParse(q6), scm, "Product")
	if len(locks) != 1 || !locks[0].Exclusive || locks[0].Gran != Row {
		t.Fatalf("locks = %v", locks)
	}
	// Updating an indexed column adds a range lock on its secondary index.
	locks = GenExclusiveLocks(sqlast.MustParse(`UPDATE OrderItem SET O_ID = ? WHERE ID = ?`), scm, "OrderItem")
	var sawSecRange bool
	for _, l := range locks {
		if l.Exclusive && l.Gran == Range && l.Index != nil && l.Index.Name == "idx_oi_o" {
			sawSecRange = true
		}
	}
	if !sawSecRange {
		t.Errorf("locks = %v", locks)
	}
	// INSERT writes every index.
	locks = GenExclusiveLocks(sqlast.MustParse(`INSERT INTO OrderItem (ID, O_ID, P_ID, QTY) VALUES (?, ?, ?, ?)`), scm, "OrderItem")
	if len(locks) != 3 {
		t.Errorf("insert locks = %v", locks)
	}
}

func TestConflicting(t *testing.T) {
	scm := fig1Schema()
	sel := sqlast.MustParse(`SELECT * FROM Product p WHERE p.ID = ?`)
	upd := sqlast.MustParse(q6)
	shared := GenSharedLocks(sel, scm, "Product", false)
	excl := GenExclusiveLocks(upd, scm, "Product")
	if !Conflicting(shared, excl) {
		t.Error("S row vs X row on the same index must conflict")
	}
	if Conflicting(shared, shared) {
		t.Error("S vs S must not conflict")
	}
}

// TestCollideReadsRecordRow pins the premises under which Collide asks
// only the record row of minidb's matrix: a modeled lock is S or X, two S
// locks conflict on neither row, and the only gap-row conflict is an
// insert intention request, which the model writes as the inserter's
// exclusive ROW lock.
func TestCollideReadsRecordRow(t *testing.T) {
	modes := []minidb.LockMode{minidb.LockS, minidb.LockX, minidb.LockII}
	for _, held := range modes {
		for _, req := range modes {
			if minidb.Conflicts(held, req, minidb.GapLock) && req != minidb.LockII {
				t.Errorf("gap row: %v blocks %v; only insert intention waits on a gap", held, req)
			}
		}
	}
	for _, kind := range []minidb.LockKind{minidb.RecordLock, minidb.GapLock} {
		if minidb.Conflicts(minidb.LockS, minidb.LockS, kind) {
			t.Errorf("S blocks S on kind %d", kind)
		}
	}
	ix := fig1Schema().Table("Product").PrimaryIndex()
	for _, a := range []bool{false, true} {
		for _, b := range []bool{false, true} {
			la := Lock{Table: "Product", Index: ix, Gran: Row, Exclusive: a}
			lb := Lock{Table: "Product", Index: ix, Gran: Range, Exclusive: b}
			if got, want := Collide(la, lb), a || b; got != want {
				t.Errorf("Collide(%v, %v) = %v, want %v", la, lb, got, want)
			}
		}
	}
}

func TestPotentialConflictIndexDisjoint(t *testing.T) {
	// Statements touching the same table on different, non-overlapping
	// indexes where the writer doesn't touch the reader's index: the
	// fine-grained model keeps the table-level edge out.
	scm := fig1Schema()
	selByO := sqlast.MustParse(`SELECT * FROM OrderItem oi WHERE oi.O_ID = ?`)
	updQty := sqlast.MustParse(`UPDATE OrderItem SET QTY = ? WHERE ID = ?`)
	// The reader locks idx_oi_o (range) + primary rows; the writer locks
	// primary rows (QTY is unindexed). They share the primary index, so a
	// conflict IS possible.
	selStmt := mkStmt(`SELECT * FROM OrderItem oi WHERE oi.O_ID = ?`, []smt.Expr{smt.NewVar("x", smt.SortInt)}, nil)
	updStmt := mkStmt(`UPDATE OrderItem SET QTY = ? WHERE ID = ?`,
		[]smt.Expr{smt.NewVar("q", smt.SortInt), smt.NewVar("id", smt.SortInt)}, nil)
	_ = selByO
	_ = updQty
	if !PotentialConflict(selStmt, updStmt, scm, false) {
		t.Error("primary-row overlap must be a potential conflict")
	}
	// Two SELECTs never conflict.
	if PotentialConflict(selStmt, selStmt, scm, false) {
		t.Error("read-read flagged")
	}
}

// mkStmt builds a trace.Stmt for conflict-condition tests.
func mkStmt(sql string, syms []smt.Expr, res *trace.Result) *trace.Stmt {
	st := &trace.Stmt{SQL: sql, Parsed: sqlast.MustParse(sql)}
	for i, s := range syms {
		st.Params = append(st.Params, trace.Param{Sym: s, Concrete: minidb.I64(int64(i))})
	}
	st.Res = res
	return st
}

// TestConflictCondFig9 mirrors the paper's end-to-end example: the
// C-edge between A1.Q4 (SELECT with one fetched row) and A2.Q6 (UPDATE of
// Product). The condition must force A2's updated product ID to equal the
// product ID fetched by A1.
func TestConflictCondFig9(t *testing.T) {
	scm := fig1Schema()
	a1Order := smt.NewVar("A1.order_id", smt.SortInt)
	a2PID := smt.NewVar("A2.res4.row0.p.ID", smt.SortInt)
	a2QTY := smt.NewVar("A2.qty", smt.SortInt)

	read := mkStmt(q4, []smt.Expr{a1Order}, &trace.Result{
		Cols: []string{"oi.ID", "oi.O_ID", "oi.P_ID", "oi.QTY", "o.ID", "p.ID", "p.QTY"},
		Sym: [][]smt.Var{{
			{Name: "A1.res4.row0.oi.ID", S: smt.SortInt},
			{Name: "A1.res4.row0.oi.O_ID", S: smt.SortInt},
			{Name: "A1.res4.row0.oi.P_ID", S: smt.SortInt},
			{Name: "A1.res4.row0.oi.QTY", S: smt.SortInt},
			{Name: "A1.res4.row0.o.ID", S: smt.SortInt},
			{Name: "A1.res4.row0.p.ID", S: smt.SortInt},
			{Name: "A1.res4.row0.p.QTY", S: smt.SortInt},
		}},
	})
	write := mkStmt(q6, []smt.Expr{a2QTY, a2PID}, nil)

	cond := GenConflictCond(write, read, scm, "Product", "r1.", NewNamer("e1."), false)
	if cond == smt.Expr(smt.False) {
		t.Fatal("conflict condition is False")
	}
	res := new(solver.Solver).Solve(context.Background(), cond)
	if res.Status != solver.SAT {
		t.Fatalf("conflict condition unsatisfiable: %s\n%s", res.Status, cond)
	}
	// In every model, the written product row equals the fetched one.
	got1 := res.Model.Vars["A2.res4.row0.p.ID"]
	got2 := res.Model.Vars["A1.res4.row0.p.ID"]
	if !got1.Equal(got2) {
		t.Errorf("model decouples writer and reader rows: %s vs %s\nmodel: %s", got1, got2, res.Model)
	}
	// Conjoining an explicit inequality must make it UNSAT.
	neq := smt.And(cond, smt.Ne(a2PID, smt.NewVar("A1.res4.row0.p.ID", smt.SortInt)))
	if r := new(solver.Solver).Solve(context.Background(), neq); r.Status != solver.UNSAT {
		t.Errorf("decoupled rows still satisfiable: %s", r.Status)
	}
}

// TestConflictCondEmptyReadRangeLock: an empty SELECT conflicts with an
// INSERT only through its range lock; the base (associated) condition is
// False but the enlarged range condition keeps the edge alive — the d1
// mechanism.
func TestConflictCondEmptyReadRangeLock(t *testing.T) {
	scm := fig1Schema()
	selParam := smt.NewVar("A1.pid", smt.SortInt)
	insParam := smt.NewVar("A2.pid", smt.SortInt)

	read := mkStmt(`SELECT * FROM Product p WHERE p.ID = ?`, []smt.Expr{selParam}, &trace.Result{
		Cols:  []string{"p.ID", "p.QTY"},
		Empty: true,
	})
	write := mkStmt(`INSERT INTO Product (ID, QTY) VALUES (?, ?)`,
		[]smt.Expr{insParam, smt.NewVar("A2.qty", smt.SortInt)}, nil)

	cond := GenConflictCond(write, read, scm, "Product", "r1.", NewNamer("e1."), false)
	res := new(solver.Solver).Solve(context.Background(), cond)
	if res.Status != solver.SAT {
		t.Fatalf("range-lock conflict not satisfiable: %s\n%s", res.Status, cond)
	}
}

// TestConflictCondNoRangeNoRows: an empty read with no range-index
// overlap with the writer yields False.
func TestConflictCondNoLockOverlap(t *testing.T) {
	scm := fig1Schema()
	// Reader scans OrderItem via idx_oi_o; writer inserts into Product.
	read := mkStmt(`SELECT * FROM OrderItem oi WHERE oi.O_ID = ?`,
		[]smt.Expr{smt.NewVar("A1.oid", smt.SortInt)}, &trace.Result{Cols: []string{"oi.ID"}, Empty: true})
	write := mkStmt(`INSERT INTO Product (ID, QTY) VALUES (?, ?)`,
		[]smt.Expr{smt.NewVar("A2.pid", smt.SortInt), smt.NewVar("A2.q", smt.SortInt)}, nil)
	cond := GenConflictCond(write, read, scm, "Product", "r1.", NewNamer("e1."), false)
	if res := new(solver.Solver).Solve(context.Background(), cond); res.Status != solver.UNSAT {
		t.Errorf("disjoint tables produced a satisfiable condition: %s", res.Status)
	}
}

// TestConflictCondPathConditionKillsIt: conjoining contradictory path
// conditions turns a satisfiable conflict UNSAT — the mechanism by which
// the fine-grained phase eliminates false positives.
func TestConflictCondPathConditionKillsIt(t *testing.T) {
	scm := fig1Schema()
	selParam := smt.NewVar("A1.pid", smt.SortInt)
	updParam := smt.NewVar("A2.pid", smt.SortInt)
	read := mkStmt(`SELECT * FROM Product p WHERE p.ID = ?`, []smt.Expr{selParam}, &trace.Result{
		Cols: []string{"p.ID", "p.QTY"},
		Sym: [][]smt.Var{{
			{Name: "A1.res0.row0.p.ID", S: smt.SortInt},
			{Name: "A1.res0.row0.p.QTY", S: smt.SortInt},
		}},
	})
	write := mkStmt(q6, []smt.Expr{smt.NewVar("A2.q", smt.SortInt), updParam}, nil)
	cond := GenConflictCond(write, read, scm, "Product", "r1.", NewNamer("e1."), false)

	// Path conditions pin the two parameters to different key spaces.
	pcs := smt.And(
		smt.Eq(selParam, smt.NewVar("A1.res0.row0.p.ID", smt.SortInt)),
		smt.Lt(selParam, smt.Int(100)),
		smt.Ge(updParam, smt.Int(100)),
	)
	full := smt.And(cond, pcs)
	if res := new(solver.Solver).Solve(context.Background(), full); res.Status != solver.UNSAT {
		t.Errorf("contradictory path conditions still satisfiable: %s", res.Status)
	}
}

func TestWriteWriteConflictCond(t *testing.T) {
	scm := fig1Schema()
	u1 := mkStmt(q6, []smt.Expr{smt.NewVar("A1.q", smt.SortInt), smt.NewVar("A1.pid", smt.SortInt)}, nil)
	u2 := mkStmt(q6, []smt.Expr{smt.NewVar("A2.q", smt.SortInt), smt.NewVar("A2.pid", smt.SortInt)}, nil)
	cond := GenConflictCond(u1, u2, scm, "Product", "r1.", NewNamer("e1."), false)
	res := new(solver.Solver).Solve(context.Background(), cond)
	if res.Status != solver.SAT {
		t.Fatalf("update-update conflict: %s", res.Status)
	}
	if !res.Model.Vars["A1.pid"].Equal(res.Model.Vars["A2.pid"]) {
		t.Errorf("conflicting updates must target one row: %s", res.Model)
	}
}

// TestModelSharedMatchesFresh: one model per skeleton key, built from
// its first statement and shared by the later ones — which differ in
// parameters, in whether the read came back empty, and in recorded plan —
// answers exactly as the package-level entry points, which model each
// statement afresh, do, and its C-edge conditions are the direct builds
// (checkEdgeCond).
func TestModelSharedMatchesFresh(t *testing.T) {
	scm := fig1Schema()
	sel := `SELECT * FROM Product p WHERE p.ID = ?`
	row := func(prefix string) *trace.Result {
		return &trace.Result{Cols: []string{"p.ID", "p.QTY"}, Sym: [][]smt.Var{{
			{Name: prefix + "p.ID", S: smt.SortInt}, {Name: prefix + "p.QTY", S: smt.SortInt},
		}}}
	}
	v := func(n string) smt.Expr { return smt.NewVar(n, smt.SortInt) }
	planned := mkStmt(sel, []smt.Expr{v("c")}, &trace.Result{Cols: []string{"p.ID", "p.QTY"}, Empty: true})
	planned.Plan = []trace.PlanStep{{Alias: "p", Table: "Product", Index: "PRIMARY"}}
	stmts := []*trace.Stmt{
		mkStmt(sel, []smt.Expr{v("a")}, row("A1.")),
		mkStmt(sel, []smt.Expr{v("b")}, &trace.Result{Cols: []string{"p.ID", "p.QTY"}, Empty: true}),
		planned,
		mkStmt(q4, []smt.Expr{v("o")}, &trace.Result{Cols: []string{"oi.ID"}, Empty: true}),
		mkStmt(q6, []smt.Expr{v("q1"), v("id1")}, nil),
		mkStmt(q6, []smt.Expr{v("q2"), v("id2")}, nil),
		mkStmt(q6, []smt.Expr{v("q3"), nil}, nil), // a concrete-only ID, 1
		mkStmt(q6, []smt.Expr{v("q4"), smt.Int(1)}, nil),
		mkStmt(`INSERT INTO Product (ID, QTY) VALUES (?, ?)`, []smt.Expr{v("i"), v("iq")}, nil),
	}
	for _, usePlans := range []bool{false, true} {
		shared := map[string]*Model{}
		model := func(st *trace.Stmt) *Model {
			sk := SkeletonOf(st)
			if shared[sk.Key] == nil {
				shared[sk.Key] = ModelOf(sk, scm, usePlans)
			}
			return shared[sk.Key]
		}
		// as builds the statement's view of its key's model: the shared
		// locks and aliases over the statement itself.
		as := func(m *Model, st *trace.Stmt) *Model {
			v := *m
			v.st = st
			return &v
		}
		for _, w := range stmts {
			for _, r := range stmts {
				mw, mr := as(model(w), w), as(model(r), r)
				if got, want := collide(mw, mr), PotentialConflict(w, r, scm, usePlans); got != want {
					t.Errorf("collide(%q, %q, plans=%v) = %v, fresh %v", w.SQL, r.SQL, usePlans, got, want)
				}
				want := GenConflictCond(w, r, scm, "Product", "r1.", NewNamer("e."), usePlans)
				var got smt.Expr = smt.False
				if w.Parsed.WriteTable() == "Product" && slices.Contains(r.Parsed.Tables(), "Product") {
					got = conflictCond(mw, mr, "Product", "r1.", NewNamer("e."))
				}
				if got.String() != want.String() {
					t.Errorf("conflictCond(%q, %q, plans=%v):\n got %s\nwant %s", w.SQL, r.SQL, usePlans, got, want)
				}
				checkEdgeCond(t, w, r, model(w), model(r), usePlans)
			}
		}
	}
}

// checkEdgeCond holds the C-edge between x, in symbol space "A1.", and y,
// in "A2.", instantiated from the template over their keys' models mx and
// my, to the condition built directly from copies of the statements
// carrying those prefixes: equal by TypedString; the template's variable
// list names exactly the template's variables, and its Collide bit is the
// statements' PotentialConflict.
func checkEdgeCond(t *testing.T, x, y *trace.Stmt, mx, my *Model, usePlans bool) {
	t.Helper()
	scm := mx.scm
	tmpl := EdgeTemplate(mx, my, "r1.")
	got := EdgeCond(tmpl, SkeletonOf(x).Names, SkeletonOf(y).Names, "A1.", "A2.")
	vars := tmpl.Vars
	if want := PotentialConflict(x, y, scm, usePlans); tmpl.Collide != want {
		t.Errorf("EdgeTemplate(%q, %q, plans=%v): Collide %v, PotentialConflict %v", x.SQL, y.SQL, usePlans, tmpl.Collide, want)
	}
	prefixed := func(st *trace.Stmt, p string) *trace.Stmt {
		return renameStmt(st, func(n string) string { return p + n })
	}
	nm := NewNamer("rng.r1.")
	var alts []smt.Expr
	Oriented(prefixed(x, "A1."), prefixed(y, "A2."), func(w, r *trace.Stmt, table string) bool {
		alts = append(alts, GenConflictCond(w, r, scm, table, "r1.", nm, usePlans))
		return false
	})
	if want := smt.Or(alts...); smt.TypedString(got) != smt.TypedString(want) {
		t.Errorf("EdgeCond(%q, %q, plans=%v):\n got %s\nwant %s", x.SQL, y.SQL, usePlans, got, want)
	}
	set := smt.VarSet(tmpl.Cond)
	for _, v := range vars {
		if _, ok := set[v]; !ok {
			t.Errorf("EdgeCond(%q, %q, plans=%v): variable %s is not the condition's", x.SQL, y.SQL, usePlans, v)
		}
	}
	if len(vars) != len(set) {
		t.Errorf("EdgeCond(%q, %q, plans=%v): %d variables listed, the condition has %d", x.SQL, y.SQL, usePlans, len(vars), len(set))
	}
}

// TestSkeletonKeyMatchesRenamedCopy holds SkeletonKey, which renames
// nothing, to the key rendered from the statement's renamed copy, as
// SkeletonOf built it before: parameters by TypedString of the copy, result
// cells by their copied names. The statements cover a name repeated across
// parameters and cells, both operands of an arithmetic parameter named (a
// copy's rename meets the right one first), an array read, a concrete-only
// parameter, a NULL cell's empty name and a plan.
func TestSkeletonKeyMatchesRenamedCopy(t *testing.T) {
	v := func(n string) smt.Var { return smt.NewVar(n, smt.SortInt) }
	arr := smt.NewArray("cache@1", smt.SortInt).Store(v("k"), true)
	planned := mkStmt(`SELECT * FROM Product p WHERE p.ID = ?`, []smt.Expr{v("c")},
		&trace.Result{Cols: []string{"p.ID", "p.QTY"}, Sym: [][]smt.Var{{v("c"), {Name: "", S: smt.SortInt}}}})
	planned.Plan = []trace.PlanStep{{Alias: "p", Table: "Product", Index: "PRIMARY"}}
	stmts := []*trace.Stmt{
		planned,
		mkStmt(q6, []smt.Expr{smt.Add(v("a"), v("b")), v("a")}, nil),
		mkStmt(q6, []smt.Expr{smt.Sub(v("q"), smt.Int(1)), nil}, nil),
		mkStmt(q6, []smt.Expr{smt.Read(arr, v("j")), v("k")}, nil),
		mkStmt(q4, []smt.Expr{v("o")}, &trace.Result{Cols: []string{"oi.ID"}, Empty: true}),
	}
	for _, st := range stmts {
		var names []string
		cp := renameStmt(st, func(n string) string {
			if !slices.Contains(names, n) {
				names = append(names, n)
			}
			return "\x00" + strconv.Itoa(slices.Index(names, n))
		})
		want := strconv.AppendQuote(nil, st.SQL)
		for _, p := range cp.Params {
			e, ok := p.Sym, p.Sym != nil
			if !ok {
				e, ok = datumExpr(p.Concrete)
			}
			if want = append(want, '|'); ok {
				want = append(want, smt.TypedString(e)...)
			}
		}
		if res := cp.Res; res != nil {
			want = strconv.AppendBool(append(want, '#'), res.Empty)
			for _, c := range res.Cols {
				want = strconv.AppendQuote(want, c)
			}
			for _, row := range res.Sym {
				want = append(want, '/')
				for _, c := range row {
					want = append(strconv.AppendQuote(want, c.Name), '0'+byte(c.S))
				}
			}
		}
		for _, p := range st.Plan {
			want = strconv.AppendQuote(strconv.AppendQuote(strconv.AppendQuote(append(want, '@'), p.Alias), p.Table), p.Index)
		}
		key, gotNames := SkeletonKey([]byte("junk"), []string{"junk"}, st)
		if string(key[4:]) != string(want) || !slices.Equal(gotNames[1:], names) {
			t.Errorf("%s:\n key %q names %q\nwant %q names %q", st.SQL, key[4:], gotNames[1:], want, names)
		}
		if sk := SkeletonOf(st); sk.Key != string(want) || !slices.Equal(sk.Names, names) {
			t.Errorf("%s: SkeletonOf key %q names %q", st.SQL, sk.Key, sk.Names)
		}
	}
}
