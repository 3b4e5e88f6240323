package minidb

import (
	"errors"
	"fmt"
	"math/big"
	"sync"
	"testing"
	"time"

	"weseer/internal/schema"
	"weseer/internal/sqlast"
)

// TestPreparedFormPerTemplate: ten thousand separately parsed copies of
// one statement text share one prepared form, and a parse that executes
// again is found by pointer.
func TestPreparedFormPerTemplate(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	before, _ := db.PreparedForms()
	txn := db.Begin()
	var last sqlast.Stmt
	for i := 0; i < 10_000; i++ {
		last = sqlast.MustParse(fmt.Sprintf("SELECT * FROM %s p WHERE p.ID = ?", "Product"))
		if rs, err := txn.Exec(last, []Datum{I64(2)}); err != nil || len(rs.Rows) != 1 {
			t.Fatalf("copy %d: %v, %v", i, rs, err)
		}
	}
	byStmt, byText := db.PreparedForms()
	if byStmt != before+1 || byText != before+1 {
		t.Fatalf("prepared forms: %d by statement, %d by text, want %d each", byStmt, byText, before+1)
	}
	p, _ := db.prepare(last)
	if q, _ := db.prepare(last); q != p {
		t.Error("the same parse prepared twice")
	}
	if q, _ := db.prepare(sqlast.MustParse("SELECT * FROM Product p WHERE p.ID = ?")); q != p {
		t.Error("a second parse of the text got a form of its own")
	}
	// Explain reads the form execution uses.
	if plan := db.Explain(last); len(plan) != 1 || &plan[0] != &p.paths[0] {
		t.Errorf("Explain = %+v, not the prepared form's paths", plan)
	}
	txn.Commit()
}

// tricky holds strings that Key.String runs together: as a two-column key
// ("a','b", "c") and ("a", "b','c") both display as ('a','b','c').
var tricky = []string{"a", "a','b", "b','c", "c", "", "'", ",", "(", ")", "','", "a'", "'a", "NULL", "+inf", "1"}

// TestKeyNamesAreInjective: distinct keys get distinct lock-table names,
// equal keys (numerics compare across kinds) the same name, and no key is
// named like the supremum.
func TestKeyNamesAreInjective(t *testing.T) {
	var keys []Key
	for _, a := range tricky {
		keys = append(keys, Key{Str(a)}, Key{I64(1), Str(a)}, Key{NullDatum(KStr), Str(a)})
		for _, b := range tricky {
			keys = append(keys, Key{Str(a), Str(b)})
		}
	}
	keys = append(keys, Key{I64(1)}, Key{I64(-1)}, Key{I64(1), I64(1)}, Key{I64(256)}, Key{I64(1 << 40)},
		Key{Real(big.NewRat(1, 2))}, Key{Real(big.NewRat(3, 2))}, Key{NullDatum(KInt)}, Key{NullDatum(KInt), NullDatum(KInt)})
	names := map[string]Key{}
	for _, k := range keys {
		name := encKey(k)
		if name == "" {
			t.Errorf("%v is named like the supremum", k)
		}
		if prev, dup := names[name]; dup && prev.Cmp(k) != 0 {
			t.Errorf("%v and %v share the name %q", prev, k, name)
		}
		names[name] = k
		if got := displayKey(name); got != k.String() && len(k) == 1 {
			t.Errorf("%v decodes as %s", k, got)
		}
	}
	if a, b := (Key{Str("a','b"), Str("c")}), (Key{Str("a"), Str("b','c")}); a.String() != b.String() {
		t.Fatalf("display forms differ (%s, %s): the test lost its point", a, b)
	}
	same := [][2]Key{
		{{I64(5)}, {RealInt(5)}},
		{{NullDatum(KInt)}, {NullDatum(KStr)}},
		{{Real(big.NewRat(1, 2))}, {Real(big.NewRat(2, 4))}},
	}
	for _, pair := range same {
		if a, b := encKey(pair[0]), encKey(pair[1]); a != b {
			t.Errorf("%v and %v are one index entry but get names %q and %q", pair[0], pair[1], a, b)
		}
	}
}

// TestDistinctStringKeysDoNotConflict: two rows whose composite string
// keys display alike are two lock resources. When the display form was the
// resource name, the second writer waited for the first.
func TestDistinctStringKeysDoNotConflict(t *testing.T) {
	s := schema.New()
	s.AddTable("Pair").Col("A", schema.Varchar).Col("B", schema.Varchar).Col("N", schema.Int).PrimaryKey("A", "B")
	db := Open(s, Config{LockWaitTimeout: 50 * time.Millisecond})
	txn := db.Begin()
	exec(t, txn, `INSERT INTO Pair (A, B, N) VALUES (?, ?, ?)`, Str("a','b"), Str("c"), I64(1))
	exec(t, txn, `INSERT INTO Pair (A, B, N) VALUES (?, ?, ?)`, Str("a"), Str("b','c"), I64(2))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	t1, t2 := db.Begin(), db.Begin()
	update := sqlast.MustParse(`UPDATE Pair SET N = ? WHERE A = ? AND B = ?`)
	if rs, err := t1.Exec(update, []Datum{I64(10), Str("a','b"), Str("c")}); err != nil || rs.Affected != 1 {
		t.Fatalf("first writer: %v, %v", rs, err)
	}
	rs, err := t2.Exec(update, []Datum{I64(20), Str("a"), Str("b','c")})
	if errors.Is(err, ErrLockWaitTimeout) {
		t.Fatal("the writer of a different row waited for the first writer's record lock")
	}
	if err != nil || rs.Affected != 1 {
		t.Fatalf("second writer: %v, %v", rs, err)
	}
	if waits := db.StatsSnapshot().LockWaits; waits != 0 {
		t.Errorf("%d lock waits between writers of different rows", waits)
	}
	t1.Commit()
	t2.Commit()
}

// stmtBench is one statement kind over the test schema, with the
// parameters of its i-th execution.
type stmtBench struct {
	name   string
	sql    string
	params func(i int64) []Datum
	// undo ends each execution's transaction with a rollback, so that the
	// table does not run out of rows to delete.
	undo bool
}

// benchRows is how many Products, Users and OrderItems benchDB holds.
const benchRows = 1000

var stmtBenches = []stmtBench{
	{"PointSelect", `SELECT * FROM Users u WHERE u.EMAIL = ?`,
		func(i int64) []Datum { return []Datum{Str(fmt.Sprintf("u%d@x", i%benchRows))} }, false},
	{"RangeSelect", `SELECT * FROM OrderItem oi WHERE oi.O_ID = ?`,
		func(i int64) []Datum { return []Datum{I64(i % (benchRows / 4))} }, false},
	{"JoinSelect", `SELECT * FROM OrderItem oi JOIN Orders o ON o.ID = oi.O_ID JOIN Product p ON p.ID = oi.P_ID WHERE oi.O_ID = ?`,
		func(i int64) []Datum { return []Datum{I64(i % (benchRows / 4))} }, false},
	{"Insert", `INSERT INTO Users (ID, EMAIL) VALUES (?, ?)`,
		func(i int64) []Datum { return []Datum{I64(benchRows + i), Str(fmt.Sprintf("n%d@x", i))} }, false},
	{"Update", `UPDATE Product SET QTY = ? WHERE ID = ?`,
		func(i int64) []Datum { return []Datum{I64(i), I64(i % benchRows)} }, false},
	{"Delete", `DELETE FROM Product WHERE ID = ?`,
		func(i int64) []Datum { return []Datum{I64(i % benchRows)} }, true},
}

// benchDB holds benchRows Products and Users, benchRows/4 Orders and four
// OrderItems per order.
func benchDB(tb testing.TB) *DB {
	db := Open(testSchema(), Config{})
	txn := db.Begin()
	run := func(sql string, params ...Datum) {
		if _, err := txn.Exec(sqlast.MustParse(sql), params); err != nil {
			tb.Fatal(err)
		}
	}
	for i := int64(0); i < benchRows; i++ {
		run(`INSERT INTO Product (ID, QTY) VALUES (?, ?)`, I64(i), I64(100))
		run(`INSERT INTO Users (ID, EMAIL) VALUES (?, ?)`, I64(i), Str(fmt.Sprintf("u%d@x", i)))
		if i%4 == 0 {
			run(`INSERT INTO Orders (ID) VALUES (?)`, I64(i/4))
		}
		run(`INSERT INTO OrderItem (ID, O_ID, P_ID, QTY) VALUES (?, ?, ?, ?)`, I64(i), I64(i/4), I64(i), I64(1))
	}
	if err := txn.Commit(); err != nil {
		tb.Fatal(err)
	}
	return db
}

// benchmarkStatement times one statement kind, each execution in a
// transaction of its own (begin, execute, commit), against a warm
// prepared-form cache.
func benchmarkStatement(b *testing.B, sb stmtBench) {
	db := benchDB(b)
	st := sqlast.MustParse(sb.sql)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := db.Begin()
		if _, err := txn.Exec(st, sb.params(int64(i))); err != nil {
			b.Fatal(err)
		}
		if sb.undo {
			txn.Rollback()
		} else {
			txn.Commit()
		}
	}
}

func BenchmarkStatementPointSelect(b *testing.B) { benchmarkStatement(b, stmtBenches[0]) }
func BenchmarkStatementRangeSelect(b *testing.B) { benchmarkStatement(b, stmtBenches[1]) }
func BenchmarkStatementJoinSelect(b *testing.B)  { benchmarkStatement(b, stmtBenches[2]) }
func BenchmarkStatementInsert(b *testing.B)      { benchmarkStatement(b, stmtBenches[3]) }
func BenchmarkStatementUpdate(b *testing.B)      { benchmarkStatement(b, stmtBenches[4]) }
func BenchmarkStatementDelete(b *testing.B)      { benchmarkStatement(b, stmtBenches[5]) }

// TestStatementAllocs pins what a statement may allocate once its
// template is prepared and the lock table has queues to recycle. Each
// ceiling sits a little above the measured count (4, 3 and 0; logged); while the indexes kept a string per row the three cost 4, 4
// and 0, before rows and index keys were stored as strings 6, 9 and 0
// allocations, and before statements were prepared 32, 40 and 3.
// A per-execution map, a heap-allocated grant, tree entry or hit list, or
// a copied resource name coming back trips them.
func TestStatementAllocs(t *testing.T) {
	const runs = 50 // AllocsPerRun calls f once more, to warm up
	db := benchDB(t)
	point := sqlast.MustParse(stmtBenches[0].sql)
	insert := sqlast.MustParse(stmtBenches[3].sql)
	update := sqlast.MustParse(stmtBenches[4].sql)
	// Parameters are built, and the committers run, ahead of the measured
	// calls; a first transaction leaves the lock table queues to recycle.
	var selects, inserts [][]Datum
	var committers []*Txn
	for i := int64(0); i <= runs+1; i++ {
		selects = append(selects, stmtBenches[0].params(i))
		inserts = append(inserts, stmtBenches[3].params(i))
		txn := db.Begin()
		for id := 10 * i; id < 10*i+10; id++ {
			if _, err := txn.Exec(update, []Datum{I64(1), I64(id)}); err != nil {
				t.Fatal(err)
			}
		}
		if len(txn.held) != 10 {
			t.Fatalf("transaction holds %d locks, want 10", len(txn.held))
		}
		if i == 0 {
			txn.Commit()
			txn = nil
		}
		committers = append(committers, txn)
	}
	reader, writer := db.Begin(), db.Begin()
	n := 0
	cases := []struct {
		name    string
		ceiling float64
		run     func(i int)
	}{
		// ResultSet, the encoded equality prefix, output row and row list.
		// The two new queues are named by views of the pages' keys.
		{"point SELECT on a unique key", 5, func(i int) {
			if rs, err := reader.Exec(point, selects[i]); err != nil || len(rs.Rows) != 1 {
				t.Fatalf("point select: %v, %v", rs, err)
			}
		}},
		// The primary key, the secondary key and the ResultSet; the row
		// is encoded in the executor's scratch and appended to its page,
		// queues are named by the keys, and a page compaction or the undo
		// and lock lists' growth come now and then.
		{"INSERT into a table with one secondary index", 3, func(i int) {
			if _, err := writer.Exec(insert, inserts[i]); err != nil {
				t.Fatal(err)
			}
		}},
		{"Commit of a ten-lock transaction", 0, func(i int) {
			if err := committers[i].Commit(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		n = 0
		got := testing.AllocsPerRun(runs, func() {
			n++
			c.run(n)
		})
		t.Logf("%s: %.0f allocations", c.name, got)
		if got > c.ceiling {
			t.Errorf("%s allocates %.0f times, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}

// TestPrepareConcurrently: clients that each parse their own copies of the
// same few texts swap one another's pointer entries in and out while they
// execute, each on rows of its own; every execution must find its row and
// the cache must stay at one form per text.
func TestPrepareConcurrently(t *testing.T) {
	db := benchDB(t)
	before, _ := db.PreparedForms()
	benches := []stmtBench{stmtBenches[0], stmtBenches[1], stmtBenches[4]}
	var wg sync.WaitGroup
	for c := int64(0); c < 4; c++ {
		wg.Add(1)
		go func(c int64) {
			defer wg.Done()
			for i := int64(0); i < 200; i++ {
				txn := db.Begin()
				for _, sb := range benches {
					rs, err := txn.Exec(sqlast.MustParse(sb.sql), sb.params(10*c+i%10))
					if err != nil || len(rs.Rows)+rs.Affected == 0 {
						t.Errorf("client %d, %q: %v, %v", c, sb.sql, rs, err)
					}
				}
				txn.Commit()
			}
		}(c)
	}
	wg.Wait()
	if byStmt, byText := db.PreparedForms(); byStmt != before+3 || byText != before+3 {
		t.Errorf("prepared forms: %d by statement, %d by text, want %d each", byStmt, byText, before+3)
	}
}
