package minidb

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"weseer/internal/obs/obstest"
	"weseer/internal/schema"
	"weseer/internal/sqlast"
)

func testSchema() *schema.Schema {
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
	s.AddTable("Users").
		Col("ID", schema.Int).
		Col("EMAIL", schema.Varchar).
		PrimaryKey("ID").
		UniqueIndex("uniq_email", "EMAIL")
	return s
}

func openTest(t *testing.T) *DB {
	t.Helper()
	return Open(testSchema(), Config{LockWaitTimeout: 2 * time.Second})
}

func exec(t *testing.T, txn *Txn, sql string, params ...Datum) *ResultSet {
	t.Helper()
	rs, err := txn.Exec(sqlast.MustParse(sql), params)
	if err != nil {
		t.Fatalf("Exec(%s): %v", sql, err)
	}
	return rs
}

func seed(t *testing.T, db *DB) {
	t.Helper()
	txn := db.Begin()
	exec(t, txn, `INSERT INTO Orders (ID) VALUES (?)`, I64(1))
	for i := int64(1); i <= 3; i++ {
		exec(t, txn, `INSERT INTO Product (ID, QTY) VALUES (?, ?)`, I64(i), I64(100))
	}
	exec(t, txn, `INSERT INTO OrderItem (ID, O_ID, P_ID, QTY) VALUES (?, ?, ?, ?)`,
		I64(1), I64(1), I64(1), I64(5))
	exec(t, txn, `INSERT INTO OrderItem (ID, O_ID, P_ID, QTY) VALUES (?, ?, ?, ?)`,
		I64(2), I64(1), I64(2), I64(7))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertSelect(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	txn := db.Begin()
	rs := exec(t, txn, `SELECT * FROM Product p WHERE p.ID = ?`, I64(2))
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	if rs.Cols[0] != "p.ID" || rs.Cols[1] != "p.QTY" {
		t.Errorf("cols = %v", rs.Cols)
	}
	if rs.Rows[0][0].I != 2 || rs.Rows[0][1].I != 100 {
		t.Errorf("row = %v", rs.Rows[0])
	}
	// Projection.
	rs = exec(t, txn, `SELECT p.QTY FROM Product p WHERE p.ID = ?`, I64(3))
	if len(rs.Cols) != 1 || rs.Cols[0] != "p.QTY" || rs.Rows[0][0].I != 100 {
		t.Errorf("projection: %v %v", rs.Cols, rs.Rows)
	}
	txn.Commit()
}

func TestSelectEmpty(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	txn := db.Begin()
	rs := exec(t, txn, `SELECT * FROM Product p WHERE p.ID = ?`, I64(99))
	if len(rs.Rows) != 0 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	txn.Commit()
}

func TestJoinQ4(t *testing.T) {
	// The paper's Q4: three-way join keyed by the order id.
	db := openTest(t)
	seed(t, db)
	txn := db.Begin()
	rs := exec(t, txn,
		`SELECT * FROM OrderItem oi JOIN Orders o ON o.ID = oi.O_ID JOIN Product p ON p.ID = oi.P_ID WHERE oi.O_ID = ?`,
		I64(1))
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 order items", len(rs.Rows))
	}
	// Column layout: oi.* then o.* then p.* in statement order.
	if rs.Cols[0] != "oi.ID" || rs.Cols[4] != "o.ID" || rs.Cols[5] != "p.ID" {
		t.Errorf("cols = %v", rs.Cols)
	}
	// Each row's p.ID must equal oi.P_ID.
	for _, row := range rs.Rows {
		if row[2].I != row[5].I {
			t.Errorf("join mismatch: %v", row)
		}
	}
	txn.Commit()
}

func TestUpdate(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	txn := db.Begin()
	rs := exec(t, txn, `UPDATE Product SET QTY = ? WHERE ID = ?`, I64(42), I64(1))
	if rs.Affected != 1 {
		t.Fatalf("affected = %d", rs.Affected)
	}
	txn.Commit()
	txn2 := db.Begin()
	rs = exec(t, txn2, `SELECT p.QTY FROM Product p WHERE p.ID = ?`, I64(1))
	if rs.Rows[0][0].I != 42 {
		t.Errorf("qty = %v", rs.Rows[0][0])
	}
	txn2.Commit()
}

func TestUpdateSecondaryIndexMaintenance(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	txn := db.Begin()
	exec(t, txn, `UPDATE OrderItem SET O_ID = ? WHERE ID = ?`, I64(9), I64(1))
	txn.Commit()
	txn2 := db.Begin()
	rs := exec(t, txn2, `SELECT * FROM OrderItem oi WHERE oi.O_ID = ?`, I64(9))
	if len(rs.Rows) != 1 || rs.Rows[0][0].I != 1 {
		t.Fatalf("index lookup after update: %v", rs.Rows)
	}
	rs = exec(t, txn2, `SELECT * FROM OrderItem oi WHERE oi.O_ID = ?`, I64(1))
	if len(rs.Rows) != 1 || rs.Rows[0][0].I != 2 {
		t.Fatalf("stale index entry: %v", rs.Rows)
	}
	txn2.Commit()
}

func TestDelete(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	txn := db.Begin()
	rs := exec(t, txn, `DELETE FROM OrderItem WHERE O_ID = ?`, I64(1))
	if rs.Affected != 2 {
		t.Fatalf("affected = %d", rs.Affected)
	}
	txn.Commit()
	txn2 := db.Begin()
	if rs := exec(t, txn2, `SELECT * FROM OrderItem oi WHERE oi.O_ID = ?`, I64(1)); len(rs.Rows) != 0 {
		t.Errorf("rows after delete: %v", rs.Rows)
	}
	txn2.Commit()
}

func TestDuplicateKey(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	txn := db.Begin()
	_, err := txn.Exec(sqlast.MustParse(`INSERT INTO Product (ID, QTY) VALUES (?, ?)`), []Datum{I64(1), I64(9)})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v", err)
	}
	// The transaction stays usable after a duplicate-key statement error.
	exec(t, txn, `INSERT INTO Product (ID, QTY) VALUES (?, ?)`, I64(50), I64(9))
	txn.Commit()
}

func TestUniqueSecondaryDuplicate(t *testing.T) {
	db := openTest(t)
	txn := db.Begin()
	exec(t, txn, `INSERT INTO Users (ID, EMAIL) VALUES (?, ?)`, I64(1), Str("a@x.com"))
	_, err := txn.Exec(sqlast.MustParse(`INSERT INTO Users (ID, EMAIL) VALUES (?, ?)`), []Datum{I64(2), Str("a@x.com")})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v", err)
	}
	txn.Commit()
}

// TestUpdateKeepsUniqueIndex: an UPDATE onto a unique key another row
// holds fails like the INSERT would, S-locking that row, and a multi-row
// UPDATE whose second row collides leaves both rows as they were.
func TestUpdateKeepsUniqueIndex(t *testing.T) {
	db := openTest(t)
	txn := db.Begin()
	exec(t, txn, `INSERT INTO Users (ID, EMAIL) VALUES (?, ?)`, I64(1), Str("a"))
	exec(t, txn, `INSERT INTO Users (ID, EMAIL) VALUES (?, ?)`, I64(2), Str("b"))
	txn.Commit()

	txn = db.Begin()
	_, err := txn.Exec(sqlast.MustParse(`UPDATE Users SET EMAIL = ? WHERE ID = ?`), []Datum{Str("a"), I64(2)})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("UPDATE onto a taken unique key: err = %v", err)
	}
	if g := GrantsOf(txn); g[len(g)-1] != (Grant{Table: "Users", Index: "PRIMARY", Key: "(1)", Mode: LockS}) {
		t.Errorf("last grant %+v, want an S lock on the colliding row", g[len(g)-1])
	}
	_, err = txn.Exec(sqlast.MustParse(`UPDATE Users SET EMAIL = ? WHERE ID > ?`), []Datum{Str("c"), I64(0)})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("UPDATE of two rows onto one key: err = %v", err)
	}
	for _, email := range []string{"a", "b"} {
		rs := exec(t, txn, `SELECT u.ID FROM Users u WHERE u.EMAIL = ?`, Str(email))
		if len(rs.Rows) != 1 {
			t.Errorf("EMAIL %s: %v", email, rs.Rows)
		}
	}
	if rs := exec(t, txn, `SELECT u.ID FROM Users u WHERE u.EMAIL = ?`, Str("c")); len(rs.Rows) != 0 {
		t.Errorf("the failed UPDATE left EMAIL c on %v", rs.Rows)
	}
	txn.Commit()
	if rows := db.TableRows("Users"); fmt.Sprint(rows) != "[[1 'a'] [2 'b']]" {
		t.Errorf("rows after the failed UPDATEs: %v", rows)
	}
}

// TestUniqueIndexAdmitsNulls: as in InnoDB, NULLs in a unique index
// collide with nothing, on INSERT or UPDATE.
func TestUniqueIndexAdmitsNulls(t *testing.T) {
	db := openTest(t)
	txn := db.Begin()
	exec(t, txn, `INSERT INTO Users (ID, EMAIL) VALUES (?, ?)`, I64(1), NullDatum(KStr))
	exec(t, txn, `INSERT INTO Users (ID, EMAIL) VALUES (?, ?)`, I64(2), NullDatum(KStr))
	exec(t, txn, `INSERT INTO Users (ID, EMAIL) VALUES (?, ?)`, I64(3), Str("c"))
	exec(t, txn, `UPDATE Users SET EMAIL = ? WHERE ID = ?`, NullDatum(KStr), I64(3))
	txn.Commit()
	if rows := db.TableRows("Users"); len(rows) != 3 {
		t.Errorf("rows: %v", rows)
	}
}

func TestUpsert(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	txn := db.Begin()
	// New key: behaves as INSERT.
	rs := exec(t, txn, `INSERT INTO Product (ID, QTY) VALUES (?, ?) ON DUPLICATE KEY UPDATE QTY = ?`,
		I64(10), I64(5), I64(5))
	if rs.Affected != 1 {
		t.Errorf("fresh upsert affected = %d", rs.Affected)
	}
	// Existing key: applies the update.
	rs = exec(t, txn, `INSERT INTO Product (ID, QTY) VALUES (?, ?) ON DUPLICATE KEY UPDATE QTY = ?`,
		I64(1), I64(5), I64(77))
	if rs.Affected != 2 {
		t.Errorf("dup upsert affected = %d", rs.Affected)
	}
	txn.Commit()
	check := db.Begin()
	rs = exec(t, check, `SELECT p.QTY FROM Product p WHERE p.ID = ?`, I64(1))
	if rs.Rows[0][0].I != 77 {
		t.Errorf("qty = %v", rs.Rows[0][0])
	}
	check.Commit()
}

func TestRollback(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	txn := db.Begin()
	exec(t, txn, `INSERT INTO Product (ID, QTY) VALUES (?, ?)`, I64(20), I64(1))
	exec(t, txn, `UPDATE Product SET QTY = ? WHERE ID = ?`, I64(0), I64(1))
	exec(t, txn, `DELETE FROM Product WHERE ID = ?`, I64(2))
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	check := db.Begin()
	if rs := exec(t, check, `SELECT * FROM Product p WHERE p.ID = ?`, I64(20)); len(rs.Rows) != 0 {
		t.Error("insert not rolled back")
	}
	if rs := exec(t, check, `SELECT p.QTY FROM Product p WHERE p.ID = ?`, I64(1)); rs.Rows[0][0].I != 100 {
		t.Error("update not rolled back")
	}
	if rs := exec(t, check, `SELECT * FROM Product p WHERE p.ID = ?`, I64(2)); len(rs.Rows) != 1 {
		t.Error("delete not rolled back")
	}
	check.Commit()
	if got := db.StatsSnapshot().Aborts; got != 1 {
		t.Errorf("aborts = %d", got)
	}
}

func TestTxnDone(t *testing.T) {
	db := openTest(t)
	txn := db.Begin()
	txn.Commit()
	if _, err := txn.Exec(sqlast.MustParse(`SELECT * FROM Product p`), nil); !errors.Is(err, ErrTxnDone) {
		t.Errorf("Exec after commit: %v", err)
	}
	if err := txn.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("double commit: %v", err)
	}
}

func TestWriteBlocksRead(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	w := db.Begin()
	exec(t, w, `UPDATE Product SET QTY = ? WHERE ID = ?`, I64(1), I64(1))

	done := make(chan int64, 1)
	go func() {
		r := db.Begin()
		rs, err := r.Exec(sqlast.MustParse(`SELECT p.QTY FROM Product p WHERE p.ID = ?`), []Datum{I64(1)})
		if err != nil {
			done <- -1
			return
		}
		r.Commit()
		done <- rs.Rows[0][0].I
	}()
	select {
	case <-done:
		t.Fatal("reader did not block on writer's X lock")
	case <-time.After(100 * time.Millisecond):
	}
	w.Commit()
	select {
	case v := <-done:
		if v != 1 {
			t.Errorf("reader saw %d, want committed value 1", v)
		}
	case <-time.After(time.Second):
		t.Fatal("reader stuck after writer commit")
	}
}

// TestGapInsertDeadlock reproduces the paper's d1 pattern: two
// transactions SELECT an absent key (each acquiring a shared gap lock),
// then both INSERT into that gap. Each insert's intention lock waits on
// the other's gap lock: a deadlock the engine must detect and break.
func TestGapInsertDeadlock(t *testing.T) {
	obstest.CheckGoroutines(t)
	db := openTest(t)
	seed(t, db)
	t1, t2 := db.Begin(), db.Begin()

	exec(t, t1, `SELECT * FROM Users u WHERE u.ID = ?`, I64(500))
	exec(t, t2, `SELECT * FROM Users u WHERE u.ID = ?`, I64(501))

	errs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, err := t1.Exec(sqlast.MustParse(`INSERT INTO Users (ID, EMAIL) VALUES (?, ?)`),
			[]Datum{I64(500), Str("a@x")})
		errs <- err
	}()
	go func() {
		defer wg.Done()
		_, err := t2.Exec(sqlast.MustParse(`INSERT INTO Users (ID, EMAIL) VALUES (?, ?)`),
			[]Datum{I64(501), Str("b@x")})
		errs <- err
	}()
	wg.Wait()
	close(errs)
	var deadlocked, succeeded int
	for err := range errs {
		switch {
		case err == nil:
			succeeded++
		case errors.Is(err, ErrDeadlock):
			deadlocked++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if deadlocked != 1 || succeeded != 1 {
		t.Fatalf("deadlocked=%d succeeded=%d, want exactly one victim", deadlocked, succeeded)
	}
	if db.StatsSnapshot().Deadlocks != 1 {
		t.Errorf("deadlock counter = %d", db.StatsSnapshot().Deadlocks)
	}
	// Clean up: the survivor commits, the victim is already aborted.
	for _, txn := range []*Txn{t1, t2} {
		if txn.State() == TxnActive {
			txn.Commit()
		} else {
			txn.Rollback()
		}
	}
}

// TestUpgradeDeadlock reproduces the read-modify-write pattern behind
// d14–d16: both transactions hold S locks on the same row, then both
// request the X upgrade.
func TestUpgradeDeadlock(t *testing.T) {
	obstest.CheckGoroutines(t)
	db := openTest(t)
	seed(t, db)
	t1, t2 := db.Begin(), db.Begin()
	exec(t, t1, `SELECT p.QTY FROM Product p WHERE p.ID = ?`, I64(1))
	exec(t, t2, `SELECT p.QTY FROM Product p WHERE p.ID = ?`, I64(1))

	errs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	for _, txn := range []*Txn{t1, t2} {
		go func(txn *Txn) {
			defer wg.Done()
			_, err := txn.Exec(sqlast.MustParse(`UPDATE Product SET QTY = ? WHERE ID = ?`),
				[]Datum{I64(9), I64(1)})
			errs <- err
		}(txn)
	}
	wg.Wait()
	close(errs)
	var deadlocked, succeeded int
	for err := range errs {
		switch {
		case err == nil:
			succeeded++
		case errors.Is(err, ErrDeadlock):
			deadlocked++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if deadlocked != 1 || succeeded != 1 {
		t.Fatalf("deadlocked=%d succeeded=%d", deadlocked, succeeded)
	}
	for _, txn := range []*Txn{t1, t2} {
		if txn.State() == TxnActive {
			txn.Commit()
		}
	}
}

// TestOrderedUpdateDeadlock reproduces d17/d18: two transactions update
// the same two rows in opposite orders.
func TestOrderedUpdateDeadlock(t *testing.T) {
	obstest.CheckGoroutines(t)
	db := openTest(t)
	seed(t, db)
	t1, t2 := db.Begin(), db.Begin()
	exec(t, t1, `UPDATE Product SET QTY = ? WHERE ID = ?`, I64(1), I64(1))
	exec(t, t2, `UPDATE Product SET QTY = ? WHERE ID = ?`, I64(2), I64(2))

	errs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, err := t1.Exec(sqlast.MustParse(`UPDATE Product SET QTY = ? WHERE ID = ?`), []Datum{I64(1), I64(2)})
		errs <- err
	}()
	go func() {
		defer wg.Done()
		_, err := t2.Exec(sqlast.MustParse(`UPDATE Product SET QTY = ? WHERE ID = ?`), []Datum{I64(2), I64(1)})
		errs <- err
	}()
	wg.Wait()
	close(errs)
	var deadlocked, succeeded int
	for err := range errs {
		switch {
		case err == nil:
			succeeded++
		case errors.Is(err, ErrDeadlock):
			deadlocked++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if deadlocked != 1 || succeeded != 1 {
		t.Fatalf("deadlocked=%d succeeded=%d", deadlocked, succeeded)
	}
	for _, txn := range []*Txn{t1, t2} {
		if txn.State() == TxnActive {
			txn.Commit()
		}
	}
}

// TestNoFalseDeadlock: disjoint keys must not deadlock.
func TestNoFalseDeadlock(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				txn := db.Begin()
				id := I64(int64(100 + g)) // per-goroutine key
				_, err := txn.Exec(sqlast.MustParse(`INSERT INTO Product (ID, QTY) VALUES (?, ?) ON DUPLICATE KEY UPDATE QTY = ?`),
					[]Datum{id, I64(int64(i)), I64(int64(i))})
				if err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, i, err)
					txn.Rollback()
					return
				}
				txn.Commit()
			}
		}(g)
	}
	wg.Wait()
	if dl := db.StatsSnapshot().Deadlocks; dl != 0 {
		t.Errorf("deadlocks on disjoint keys = %d", dl)
	}
}

// TestConcurrentCounterConsistency hammers one row with read-modify-write
// transactions (retrying deadlock victims) and checks the final value,
// verifying 2PL isolation end to end.
func TestConcurrentCounterConsistency(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	const goroutines, iters = 8, 25
	var wg sync.WaitGroup
	var committed int64
	var mu sync.Mutex
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for { // retry deadlock/timeout victims
					txn := db.Begin()
					rs, err := txn.Exec(sqlast.MustParse(`SELECT p.QTY FROM Product p WHERE p.ID = ?`), []Datum{I64(3)})
					if err == nil {
						qty := rs.Rows[0][0].I
						_, err = txn.Exec(sqlast.MustParse(`UPDATE Product SET QTY = ? WHERE ID = ?`),
							[]Datum{I64(qty + 1), I64(3)})
					}
					if err == nil {
						if err = txn.Commit(); err == nil {
							mu.Lock()
							committed++
							mu.Unlock()
							break
						}
					}
					txn.Rollback()
				}
			}
		}()
	}
	wg.Wait()
	check := db.Begin()
	rs := exec(t, check, `SELECT p.QTY FROM Product p WHERE p.ID = ?`, I64(3))
	check.Commit()
	want := int64(100) + committed
	if rs.Rows[0][0].I != want {
		t.Errorf("final qty = %d, want %d (committed=%d)", rs.Rows[0][0].I, want, committed)
	}
	if committed != goroutines*iters {
		t.Errorf("committed = %d, want %d", committed, goroutines*iters)
	}
}

func TestNextID(t *testing.T) {
	db := openTest(t)
	if db.NextID("Product") != 1 || db.NextID("Product") != 2 {
		t.Error("NextID sequence broken")
	}
	db.BumpID("Product", 100)
	if got := db.NextID("Product"); got != 101 {
		t.Errorf("NextID after bump = %d", got)
	}
	db.BumpID("Product", 5) // lower bump is a no-op
	if got := db.NextID("Product"); got != 102 {
		t.Errorf("NextID after low bump = %d", got)
	}
}

func TestLockWaitTimeout(t *testing.T) {
	obstest.CheckGoroutines(t)
	db := Open(testSchema(), Config{LockWaitTimeout: 50 * time.Millisecond})
	seedQuick(t, db)
	holder := db.Begin()
	exec(t, holder, `UPDATE Product SET QTY = ? WHERE ID = ?`, I64(0), I64(1))
	waiter := db.Begin()
	_, err := waiter.Exec(sqlast.MustParse(`UPDATE Product SET QTY = ? WHERE ID = ?`), []Datum{I64(1), I64(1)})
	if !errors.Is(err, ErrLockWaitTimeout) {
		t.Fatalf("err = %v", err)
	}
	holder.Commit()
}

func seedQuick(t *testing.T, db *DB) {
	t.Helper()
	txn := db.Begin()
	exec(t, txn, `INSERT INTO Product (ID, QTY) VALUES (?, ?)`, I64(1), I64(100))
	txn.Commit()
}

func TestParamCountMismatch(t *testing.T) {
	db := openTest(t)
	txn := db.Begin()
	_, err := txn.Exec(sqlast.MustParse(`SELECT * FROM Product p WHERE p.ID = ?`), nil)
	if err == nil {
		t.Fatal("expected param count error")
	}
	txn.Rollback()
}

func TestFullScanLocksSupremum(t *testing.T) {
	// A full scan next-key locks everything including the supremum, so a
	// concurrent insert anywhere must block.
	db := openTest(t)
	seed(t, db)
	scanner := db.Begin()
	exec(t, scanner, `SELECT * FROM Product p`)
	ins := db.Begin()
	done := make(chan error, 1)
	go func() {
		_, err := ins.Exec(sqlast.MustParse(`INSERT INTO Product (ID, QTY) VALUES (?, ?)`), []Datum{I64(99), I64(1)})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("insert did not block on scan's gap locks (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	scanner.Commit()
	if err := <-done; err != nil {
		t.Fatalf("insert after scanner commit: %v", err)
	}
	ins.Commit()
}

func TestStatsCounters(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	base := db.StatsSnapshot()
	txn := db.Begin()
	exec(t, txn, `SELECT * FROM Product p WHERE p.ID = ?`, I64(1))
	txn.Commit()
	st := db.StatsSnapshot()
	if st.Statements != base.Statements+1 {
		t.Errorf("statements %d -> %d", base.Statements, st.Statements)
	}
	if st.Commits != base.Commits+1 {
		t.Errorf("commits %d -> %d", base.Commits, st.Commits)
	}
}

func TestTableRows(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	rows := db.TableRows("Product")
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r[0].I != int64(i+1) {
			t.Errorf("row %d id = %v (not in pk order)", i, r[0])
		}
	}
}

func TestRangeScanBySecondaryIndex(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	txn := db.Begin()
	rs := exec(t, txn, `SELECT oi.ID FROM OrderItem oi WHERE oi.O_ID = ?`, I64(1))
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	txn.Commit()
}

func TestManyRowsScanFilter(t *testing.T) {
	db := openTest(t)
	txn := db.Begin()
	for i := int64(1); i <= 100; i++ {
		exec(t, txn, fmt.Sprintf(`INSERT INTO Product (ID, QTY) VALUES (%d, %d)`, i, i%10))
	}
	txn.Commit()
	q := db.Begin()
	// No index on QTY: full scan with a filter predicate.
	rs := exec(t, q, `SELECT p.ID FROM Product p WHERE p.QTY = 3`)
	if len(rs.Rows) != 10 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	q.Commit()
}
