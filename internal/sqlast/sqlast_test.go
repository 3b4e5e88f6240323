package sqlast

import (
	"reflect"
	"testing"

	"weseer/internal/smt"
)

func TestParseQ4(t *testing.T) {
	// The paper's Q4 (Fig. 1).
	st := MustParse(`SELECT * FROM OrderItem oi JOIN Orders o ON o.ID = oi.O_ID JOIN Product p ON p.ID = oi.P_ID WHERE oi.O_ID = ?`)
	s, ok := st.(*Select)
	if !ok {
		t.Fatalf("got %T", st)
	}
	if s.From.Table != "OrderItem" || s.From.Alias() != "oi" {
		t.Errorf("FROM = %+v", s.From)
	}
	if len(s.Joins) != 2 {
		t.Fatalf("joins = %d", len(s.Joins))
	}
	if s.Joins[0].Ref.Table != "Orders" || s.Joins[0].Ref.Alias() != "o" {
		t.Errorf("join0 = %+v", s.Joins[0].Ref)
	}
	am := s.AliasMap()
	if am["oi"] != "OrderItem" || am["o"] != "Orders" || am["p"] != "Product" {
		t.Errorf("alias map %v", am)
	}
	qc := s.QueryCond()
	if len(qc.Preds) != 3 {
		t.Fatalf("query cond %v", qc)
	}
	if s.NumParams() != 1 {
		t.Errorf("params = %d", s.NumParams())
	}
	last := qc.Preds[2]
	if last.L.Kind != Col || last.L.Table != "oi" || last.L.Column != "O_ID" || last.R.Kind != Param {
		t.Errorf("where pred %v", last)
	}
}

func TestParseQ6(t *testing.T) {
	// The paper's Q6: UPDATE Product SET QTY=? WHERE ID=?.
	st := MustParse(`UPDATE Product SET QTY = ? WHERE ID = ?`)
	u := st.(*Update)
	if u.Table != "Product" {
		t.Errorf("table = %s", u.Table)
	}
	if len(u.Set) != 1 || u.Set[0].Column != "QTY" || u.Set[0].Value.Kind != Param || u.Set[0].Value.Ord != 0 {
		t.Errorf("set = %+v", u.Set)
	}
	// Normalization qualifies the bare ID with the table name.
	if u.Where.Preds[0].L.Table != "Product" || u.Where.Preds[0].L.Column != "ID" {
		t.Errorf("where = %+v", u.Where.Preds[0])
	}
	if u.Where.Preds[0].R.Ord != 1 {
		t.Errorf("param ordinal = %d", u.Where.Preds[0].R.Ord)
	}
	if u.NumParams() != 2 {
		t.Errorf("NumParams = %d", u.NumParams())
	}
	if got := u.WrittenColumns(); len(got) != 1 || got[0] != "QTY" {
		t.Errorf("written = %v", got)
	}
}

func TestParseInsert(t *testing.T) {
	st := MustParse(`INSERT INTO OrderItem (ID, O_ID, P_ID, QTY) VALUES (?, ?, ?, 5)`)
	ins := st.(*Insert)
	if len(ins.Columns) != 4 || ins.NumParams() != 3 {
		t.Fatalf("insert = %+v", ins)
	}
	if v, ok := ins.ValueOf("QTY"); !ok || v.Kind != ConstInt || v.Int != 5 {
		t.Errorf("ValueOf(QTY) = %v %v", v, ok)
	}
	if _, ok := ins.ValueOf("MISSING"); ok {
		t.Error("ValueOf should miss")
	}
	if ins.WriteTable() != "OrderItem" {
		t.Errorf("write table = %s", ins.WriteTable())
	}
}

func TestParseUpsert(t *testing.T) {
	st := MustParse(`INSERT INTO Cart (ID, USER_ID, QTY) VALUES (?, ?, ?) ON DUPLICATE KEY UPDATE QTY = ?`)
	up, ok := st.(*Upsert)
	if !ok {
		t.Fatalf("got %T", st)
	}
	if up.NumParams() != 4 {
		t.Errorf("params = %d", up.NumParams())
	}
	if up.Kind() != KindUpsert {
		t.Errorf("kind = %v", up.Kind())
	}
}

func TestParseDelete(t *testing.T) {
	st := MustParse(`DELETE FROM Address WHERE USER_ID = ? AND CITY != 'nyc'`)
	d := st.(*Delete)
	if len(d.Where.Preds) != 2 {
		t.Fatalf("preds = %v", d.Where.Preds)
	}
	if d.Where.Preds[1].Op != smt.NE || d.Where.Preds[1].R.Str != "nyc" {
		t.Errorf("pred1 = %v", d.Where.Preds[1])
	}
}

func TestParseOperators(t *testing.T) {
	st := MustParse(`SELECT * FROM T WHERE a < 1 AND b <= 2 AND c > 3 AND d >= 4 AND e <> 5 AND f = 1.5`)
	s := st.(*Select)
	wantOps := []smt.CmpOp{smt.LT, smt.LE, smt.GT, smt.GE, smt.NE, smt.EQ}
	if len(s.Where.Preds) != len(wantOps) {
		t.Fatalf("preds = %d", len(s.Where.Preds))
	}
	for i, op := range wantOps {
		if s.Where.Preds[i].Op != op {
			t.Errorf("pred %d op = %v, want %v", i, s.Where.Preds[i].Op, op)
		}
	}
	if s.Where.Preds[5].R.Kind != ConstReal {
		t.Errorf("decimal literal parsed as %v", s.Where.Preds[5].R.Kind)
	}
}

func TestParseDisjunction(t *testing.T) {
	st := MustParse(`SELECT * FROM T WHERE id = ? AND (status = 'open' OR (status = 'held' AND qty > 0))`)
	s := st.(*Select)
	if len(s.Where.Preds) != 1 || len(s.Where.Ors) != 1 {
		t.Fatalf("cond = %+v", s.Where)
	}
	g := s.Where.Ors[0]
	if len(g.Disjuncts) != 2 || len(g.Disjuncts[0]) != 1 || len(g.Disjuncts[1]) != 2 {
		t.Fatalf("group = %+v", g)
	}
}

func TestParseIsNull(t *testing.T) {
	st := MustParse(`SELECT * FROM T WHERE parent_id IS NULL`)
	s := st.(*Select)
	if !s.Where.Preds[0].IsNull {
		t.Errorf("IS NULL not parsed: %+v", s.Where.Preds[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"DROP TABLE x",
		"SELECT FROM",
		"SELECT * FROM T WHERE",
		"INSERT INTO T (a, b) VALUES (?)",
		"UPDATE T SET",
		"SELECT * FROM T WHERE a ! b",
		"SELECT * FROM T WHERE a = 'unterminated",
		"SELECT * FROM T extra WHERE junk junk junk",
	}
	for _, sql := range bad {
		if st, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) succeeded: %v", sql, st)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	sqls := []string{
		`SELECT * FROM OrderItem oi JOIN Orders o ON o.ID = oi.O_ID WHERE oi.O_ID = ?`,
		`SELECT p.ID, p.QTY FROM Product p WHERE p.ID = ?`,
		`UPDATE Product SET QTY = ? WHERE Product.ID = ?`,
		`INSERT INTO T (a, b) VALUES (?, 'x')`,
		`INSERT INTO T (a) VALUES (?) ON DUPLICATE KEY UPDATE a = ?`,
		`DELETE FROM T WHERE T.a >= 10`,
		`SELECT * FROM T WHERE T.id = ? AND (T.x = 1 OR T.y = 2)`,
	}
	for _, sql := range sqls {
		st1 := MustParse(sql)
		printed := st1.String()
		st2, err := Parse(printed)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", printed, sql, err)
		}
		if st2.String() != printed {
			t.Errorf("round trip unstable:\n  1st: %s\n  2nd: %s", printed, st2.String())
		}
	}
}

func TestAliasMapOf(t *testing.T) {
	u := MustParse(`UPDATE Product SET QTY = ? WHERE ID = ?`)
	am := AliasMapOf(u)
	if am["Product"] != "Product" {
		t.Errorf("alias map %v", am)
	}
	s := MustParse(`SELECT * FROM A x JOIN B y ON y.ID = x.B_ID`)
	am = AliasMapOf(s)
	if am["x"] != "A" || am["y"] != "B" {
		t.Errorf("alias map %v", am)
	}
}

func TestParamNumbering(t *testing.T) {
	st := MustParse(`SELECT * FROM T WHERE a = ? AND b = ? AND c = ?`)
	s := st.(*Select)
	for i, p := range s.Where.Preds {
		if p.R.Kind != Param || p.R.Ord != i {
			t.Errorf("pred %d param ordinal = %+v", i, p.R)
		}
	}
}

func TestTablesOf(t *testing.T) {
	s := MustParse(`SELECT * FROM A JOIN B ON B.x = A.y JOIN C ON C.z = B.w`)
	tabs := s.Tables()
	if len(tabs) != 3 || tabs[0] != "A" || tabs[1] != "B" || tabs[2] != "C" {
		t.Errorf("tables = %v", tabs)
	}
}

// TestQueryCondOfInsert: an INSERT's query condition is one equation per
// inserted column, in column order, on the table-qualified column; an
// UPSERT's is its INSERT's.
func TestQueryCondOfInsert(t *testing.T) {
	for _, sql := range []string{
		`INSERT INTO Cart (ID, USER_ID, QTY) VALUES (?, ?, 5)`,
		`INSERT INTO Cart (ID, USER_ID, QTY) VALUES (?, ?, 5) ON DUPLICATE KEY UPDATE QTY = ?`,
	} {
		c := QueryCondOf(MustParse(sql))
		want := []Pred{
			{Op: smt.EQ, L: C("Cart", "ID"), R: P(0)},
			{Op: smt.EQ, L: C("Cart", "USER_ID"), R: P(1)},
			{Op: smt.EQ, L: C("Cart", "QTY"), R: VInt(5)},
		}
		if len(c.Ors) != 0 || len(c.Preds) != len(want) {
			t.Fatalf("QueryCondOf(%s) = %+v, want %v", sql, c, want)
		}
		for i, p := range c.Preds {
			if p.Op != want[i].Op || p.IsNull || !p.L.Equal(want[i].L) || !p.R.Equal(want[i].R) {
				t.Errorf("QueryCondOf(%s) pred %d = %v, want %v", sql, i, p, want[i])
			}
		}
	}
}

// TestAliasesOfSelfJoin: a self-join's aliases of its table, both and
// sorted; another table's alone; none for a table it does not read.
func TestAliasesOfSelfJoin(t *testing.T) {
	st := MustParse(`SELECT * FROM Product z JOIN Product a ON a.ID = z.ID JOIN Orders o ON o.ID = a.ID WHERE z.QTY > ?`)
	for table, want := range map[string][]string{"Product": {"a", "z"}, "Orders": {"o"}, "Cart": nil} {
		if got := AliasesOf(st, table); !reflect.DeepEqual(got, want) {
			t.Errorf("AliasesOf(%s) = %v, want %v", table, got, want)
		}
	}
	if got := AliasesOf(MustParse(`UPDATE Product SET QTY = ? WHERE ID = ?`), "Product"); !reflect.DeepEqual(got, []string{"Product"}) {
		t.Errorf("AliasesOf(UPDATE) = %v, want [Product]", got)
	}
}
