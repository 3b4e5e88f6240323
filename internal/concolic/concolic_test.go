package concolic

import (
	"math/big"
	"strings"
	"testing"
	"time"

	"weseer/internal/minidb"
	"weseer/internal/schema"
	"weseer/internal/smt"
	"weseer/internal/trace"
)

func testDB() *minidb.DB {
	s := schema.New()
	s.AddTable("Product").
		Col("ID", schema.Int).
		Col("QTY", schema.Int).
		PrimaryKey("ID")
	db := minidb.Open(s, minidb.Config{LockWaitTimeout: time.Second})
	txn := db.Begin()
	prep, _ := Prepare(`INSERT INTO Product (ID, QTY) VALUES (?, ?)`)
	st := prep.Stmt
	for i := int64(1); i <= 3; i++ {
		if _, err := txn.Exec(st, []minidb.Datum{minidb.I64(i), minidb.I64(10 * i)}); err != nil {
			panic(err)
		}
	}
	txn.Commit()
	return db
}

func TestValueArithmetic(t *testing.T) {
	e := New(ModeConcolic)
	e.StartConcolic("t")
	x := e.MakeSymbolic("x", Int(7))
	y := e.Add(x, Int(1))
	if y.C.I != 8 {
		t.Errorf("concrete = %v", y.C)
	}
	if y.S == nil || y.S.String() != "(x + 1)" {
		t.Errorf("symbolic = %v", y.S)
	}
	z := e.Sub(e.Mul(Int(3), x), y) // 3*7 - 8 = 13
	if z.C.I != 13 {
		t.Errorf("z = %v", z.C)
	}
	// Untracked op stays untracked.
	w := e.Add(Int(1), Int(2))
	if w.S != nil {
		t.Errorf("constant op grew symbolic state: %v", w.S)
	}
}

func TestIfRecordsPathConditions(t *testing.T) {
	// Reproduces the Sec. III example: b = a+1; if (b == 8) else-branch
	// records syma + 1 != 8.
	e := New(ModeConcolic)
	e.StartConcolic("t")
	a := e.MakeSymbolic("syma", Int(1))
	b := e.Add(a, Int(1))
	if e.If(e.Eq(b, Int(8))) {
		t.Fatal("concrete branch must follow concrete value (2 != 8)")
	}
	tr := e.EndConcolic()
	if len(tr.PathConds) != 1 {
		t.Fatalf("path conds = %d", len(tr.PathConds))
	}
	pc := tr.PathConds[0].Cond
	want := smt.Negate(smt.Eq(smt.Add(smt.NewVar("syma", smt.SortInt), smt.Int(1)), smt.Int(8)))
	if pc.String() != want.String() {
		t.Errorf("pc = %s, want %s", pc, want)
	}
	// The condition holds for the concrete execution.
	m := smt.NewModel()
	m.Vars["syma"] = smt.IntValue(1)
	if !smt.Eval(pc, m).B {
		t.Error("recorded PC contradicts concrete run")
	}
}

func TestIfConcreteOnlyNoPC(t *testing.T) {
	e := New(ModeConcolic)
	e.StartConcolic("t")
	if !e.If(e.Lt(Int(1), Int(2))) {
		t.Fatal("1 < 2")
	}
	if tr := e.EndConcolic(); len(tr.PathConds) != 0 {
		t.Errorf("constant branch recorded a PC: %v", tr.PathConds)
	}
}

func TestModeOffNoTracking(t *testing.T) {
	e := New(ModeOff)
	e.StartConcolic("t")
	x := e.MakeSymbolic("x", Int(5))
	if x.S != nil {
		t.Error("ModeOff value became symbolic")
	}
	e.If(e.Gt(x, Int(1)))
	if tr := e.EndConcolic(); tr != nil {
		t.Error("ModeOff produced a trace")
	}
}

func TestSymMapAlg1(t *testing.T) {
	e := New(ModeConcolic)
	e.StartConcolic("t")
	k := e.MakeSymbolic("k", Int(10))
	m := e.NewSymMap("cache", smt.SortInt)

	// Miss records read(arr, k) = false.
	if _, ok := m.Get(k); ok {
		t.Fatal("empty map hit")
	}
	tr := e.Trace()
	if len(tr.PathConds) != 1 || !strings.Contains(tr.PathConds[0].Cond.String(), "read(") {
		t.Fatalf("miss PC = %v", tr.PathConds)
	}

	// Put then hit: records the keyOf equality.
	obj := &struct{ v int }{v: 1}
	m.Put(k, obj)
	got, ok := m.Get(k)
	if !ok || got != obj {
		t.Fatal("lookup after put failed")
	}
	last := tr.PathConds[len(tr.PathConds)-1].Cond
	if _, isCmp := last.(*smt.Cmp); !isCmp {
		t.Errorf("hit PC should be an equality: %v", last)
	}

	// Remove then miss again.
	if !m.Remove(k) {
		t.Fatal("remove missed")
	}
	if _, ok := m.Get(k); ok {
		t.Fatal("hit after remove")
	}
	// The accumulated conditions are consistent with the concrete run.
	var all []smt.Expr
	for _, pc := range tr.PathConds {
		all = append(all, pc.Cond)
	}
	model := smt.NewModel()
	model.Vars["k"] = smt.IntValue(10)
	for i, c := range all {
		if !smt.Eval(c, model).B {
			t.Errorf("PC %d (%s) inconsistent with concrete run", i, c)
		}
	}
}

// TestSymMapKeyClasses pins which concrete keys a SymMap treats as one:
// numerics by exact value whatever their sort, strings apart from numbers.
// Only a concolic engine's maps carry the symbolic array.
func TestSymMapKeyClasses(t *testing.T) {
	huge := func() Value { return Real(new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 70))) }
	cases := []struct {
		name string
		put  Value
		get  Value
		same bool
	}{
		{"Int 5 and Real 5/1", Int(5), Real(big.NewRat(5, 1)), true},
		{"Real 5/1 and Int 5", Real(big.NewRat(10, 2)), Int(5), true},
		{"Real 1/2 and Real 2/4", Real(big.NewRat(1, 2)), Real(big.NewRat(2, 4)), true},
		{"Real 1/2 and Int 0", Real(big.NewRat(1, 2)), Int(0), false},
		{"Real 1/2 and String 1/2", Real(big.NewRat(1, 2)), Str("1/2"), false},
		{"String 5 and Int 5", Str("5"), Int(5), false},
		{"Int 5 and String 5", Int(5), Str("5"), false},
		{"Int 5 and Int 6", Int(5), Int(6), false},
		{"Real 2^70 and Real 2^70", huge(), huge(), true},
	}
	for _, mode := range []Mode{ModeOff, ModeConcolic} {
		e := New(mode)
		e.StartConcolic("t")
		for _, c := range cases {
			m := e.NewSymMap("cache", c.put.Sort())
			if built := m.arr != nil || m.keyOf != nil; built != (mode == ModeConcolic) {
				t.Errorf("%s: symbolic array built = %v", mode, built)
			}
			m.Put(c.put, c.name)
			if _, hit := m.Get(c.get); hit != c.same {
				t.Errorf("%s: %s: hit = %v, want %v", mode, c.name, hit, c.same)
			}
			if _, hit := m.Get(c.put); !hit || m.Len() != 1 {
				t.Errorf("%s: %s: stored key not found (%d entries)", mode, c.name, m.Len())
			}
		}
	}
}

func TestLibraryCallPruning(t *testing.T) {
	e := New(ModeConcolic)
	e.StartConcolic("t")
	in := e.MakeSymbolic("s", Str("x"))
	out := e.LibraryCall("String.compareTo", 40, Str("y"))
	_ = in
	tr := e.Trace()
	if tr.Stats.PathConds != 0 || tr.Stats.PrunedConds != 40 {
		t.Errorf("stats = %+v", tr.Stats)
	}
	if out.S == nil {
		t.Error("pruned library output must get a fresh symbolic variable")
	}
	if len(tr.PathConds) != 0 {
		t.Errorf("pruning stored conditions: %d", len(tr.PathConds))
	}
}

func TestLibraryCallNoPruning(t *testing.T) {
	e := New(ModeConcolic, WithoutPruning())
	e.StartConcolic("t")
	e.LibraryCall("BigDecimal.subtract", 25, Int(1))
	tr := e.Trace()
	if tr.Stats.PathConds != 25 || tr.Stats.PrunedConds != 0 {
		t.Errorf("stats = %+v", tr.Stats)
	}
	if len(tr.PathConds) != 25 {
		t.Errorf("stored conds = %d", len(tr.PathConds))
	}
}

func TestLibraryCallStorageCap(t *testing.T) {
	e := New(ModeConcolic, WithoutPruning())
	e.StartConcolic("t")
	e.LibraryCall("driver", 100000, Int(0))
	tr := e.Trace()
	if tr.Stats.PathConds != 100000 {
		t.Errorf("counted = %d", tr.Stats.PathConds)
	}
	if len(tr.PathConds) > e.storedPCCap {
		t.Errorf("stored %d conditions, cap %d", len(tr.PathConds), e.storedPCCap)
	}
}

func TestConnRecordsStatements(t *testing.T) {
	db := testDB()
	e := New(ModeConcolic)
	e.StartConcolic("api")
	c := NewConn(e, db)
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	id := e.MakeSymbolic("product_id", Int(2))
	rows, err := c.Exec(`SELECT * FROM Product p WHERE p.ID = ?`, []Value{id}, trace.CodeLoc{}, trace.CodeLoc{})
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 {
		t.Fatalf("rows = %d", rows.Len())
	}
	qty := rows.Get(0, "p.QTY")
	if qty.C.I != 20 {
		t.Errorf("qty = %v", qty.C)
	}
	if qty.S == nil || !strings.HasPrefix(qty.S.String(), "res0.row0.p.QTY") {
		t.Errorf("result alias = %v", qty.S)
	}
	// Write back through the driver.
	if _, err := c.Exec(`UPDATE Product SET QTY = ? WHERE ID = ?`, []Value{e.Sub(qty, Int(5)), id}, trace.CodeLoc{}, trace.CodeLoc{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	tr := e.EndConcolic()
	if len(tr.Txns) != 1 || !tr.Txns[0].Committed {
		t.Fatalf("txns = %+v", tr.Txns)
	}
	stmts := tr.Txns[0].Stmts
	if len(stmts) != 2 {
		t.Fatalf("stmts = %d", len(stmts))
	}
	sel, upd := stmts[0], stmts[1]
	if sel.Parsed.Kind().String() != "SELECT" || sel.Res == nil || sel.Res.Empty {
		t.Errorf("select record: %+v", sel)
	}
	if sel.Params[0].Sym.String() != "product_id" {
		t.Errorf("select param sym = %v", sel.Params[0].Sym)
	}
	if !upd.IsWrite() {
		t.Error("update not marked write")
	}
	// The UPDATE's first parameter is res-alias minus 5.
	if !strings.Contains(upd.Params[0].Sym.String(), "res0.row0.p.QTY") {
		t.Errorf("update param sym = %v", upd.Params[0].Sym)
	}
	if upd.Params[0].Concrete.I != 15 {
		t.Errorf("update param concrete = %v", upd.Params[0].Concrete)
	}
}

func TestConnEmptyResult(t *testing.T) {
	db := testDB()
	e := New(ModeConcolic)
	e.StartConcolic("api")
	c := NewConn(e, db)
	c.Begin()
	rows, err := c.Exec(`SELECT * FROM Product p WHERE p.ID = ?`, []Value{Int(99)}, trace.CodeLoc{}, trace.CodeLoc{})
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Empty() {
		t.Fatal("expected empty result")
	}
	c.Commit()
	tr := e.EndConcolic()
	if !tr.Txns[0].Stmts[0].Res.Empty {
		t.Error("empty flag not recorded")
	}
}

func TestConnInterpretMode(t *testing.T) {
	db := testDB()
	e := New(ModeInterpret)
	e.StartConcolic("api")
	c := NewConn(e, db)
	c.Begin()
	rows, err := c.Exec(`SELECT * FROM Product p WHERE p.ID = ?`, []Value{Int(1)}, trace.CodeLoc{}, trace.CodeLoc{})
	if err != nil {
		t.Fatal(err)
	}
	if rows.Get(0, "p.ID").S != nil {
		t.Error("interpret mode must not create symbolic aliases")
	}
	c.Commit()
	tr := e.EndConcolic()
	if tr.Stats.Statements != 1 {
		t.Errorf("statements = %d", tr.Stats.Statements)
	}
	if tr.Txns[0].Stmts[0].Params[0].Sym != nil {
		t.Error("interpret mode recorded symbolic params")
	}
}

func TestHereFiltersEngineFrames(t *testing.T) {
	// Frames inside the concolic and orm packages (and runtime/testing)
	// must be filtered so trigger-code reports point into application
	// source. This whole test file lives in package concolic, so a
	// correctly filtering Here never reports these functions.
	loc := Here(0)
	for _, f := range loc.Frames {
		if strings.Contains(f.File, "internal/concolic") && !strings.HasSuffix(f.File, "_test.go") {
			t.Errorf("engine frame leaked into trigger location: %v", f)
		}
		if strings.HasPrefix(f.Func, "runtime.") || strings.HasPrefix(f.Func, "testing.") {
			t.Errorf("runtime frame leaked: %v", f)
		}
	}
	if !keepFrame("weseer/internal/apps/broadleaf.(*App).Ship", "weseer/internal/apps/broadleaf/ship.go") {
		t.Error("application frames must be kept")
	}
	if keepFrame("weseer/internal/orm.(*Session).Flush", "weseer/internal/orm/session.go") ||
		keepFrame("", "") {
		t.Error("ORM/empty frames must be filtered")
	}
	if !keepFrame("weseer/internal/orm.TestX", "weseer/internal/orm/orm_test.go") {
		t.Error("test-file frames must be kept (unit tests are the app)")
	}
}

func TestStmtSeqOrdering(t *testing.T) {
	db := testDB()
	e := New(ModeConcolic)
	e.StartConcolic("api")
	c := NewConn(e, db)
	c.Begin()
	c.Exec(`SELECT * FROM Product p WHERE p.ID = ?`, []Value{Int(1)}, trace.CodeLoc{}, trace.CodeLoc{})
	c.Exec(`SELECT * FROM Product p WHERE p.ID = ?`, []Value{Int(2)}, trace.CodeLoc{}, trace.CodeLoc{})
	c.Commit()
	c.Begin()
	c.Exec(`SELECT * FROM Product p WHERE p.ID = ?`, []Value{Int(3)}, trace.CodeLoc{}, trace.CodeLoc{})
	c.Commit()
	tr := e.EndConcolic()
	all := tr.AllStmts()
	if len(all) != 3 {
		t.Fatalf("stmts = %d", len(all))
	}
	for i, s := range all {
		if s.Seq != i {
			t.Errorf("stmt %d seq = %d", i, s.Seq)
		}
	}
	if all[0].TxnID == all[2].TxnID {
		t.Error("transactions share an ID")
	}
}

func TestPathCondAfterStmt(t *testing.T) {
	db := testDB()
	e := New(ModeConcolic)
	e.StartConcolic("api")
	c := NewConn(e, db)
	x := e.MakeSymbolic("x", Int(5))
	e.If(e.Gt(x, Int(0))) // PC before any statement
	c.Begin()
	c.Exec(`SELECT * FROM Product p WHERE p.ID = ?`, []Value{x}, trace.CodeLoc{}, trace.CodeLoc{})
	e.If(e.Lt(x, Int(100))) // PC after statement 0
	c.Commit()
	tr := e.EndConcolic()
	if tr.PathConds[0].AfterStmt != 0 || tr.PathConds[1].AfterStmt != 1 {
		t.Errorf("AfterStmt = %d, %d", tr.PathConds[0].AfterStmt, tr.PathConds[1].AfterStmt)
	}
}

var benchLoc trace.CodeLoc

// BenchmarkHere measures one stack capture: a hit is every event at a
// call site after the first (walk + table lookup), a miss is a site's
// first event (walk + symbolization + insert).
func BenchmarkHere(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchLoc = Here(1)
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			forgetSites()
			benchLoc = Here(1)
		}
	})
}
