package minidb

import (
	"errors"
	"math/big"
	"sync"
	"testing"
	"time"

	"weseer/internal/schema"
	"weseer/internal/sqlast"
)

// Additional executor coverage: NULL handling, decimal columns, delete
// semantics under rollback, upsert undo, gap behavior around deletes,
// and randomized multi-writer consistency.

func decimalSchema() *schema.Schema {
	s := schema.New()
	s.AddTable("Acct").
		Col("ID", schema.Int).
		Col("BAL", schema.Decimal).
		Col("NOTE", schema.Varchar).
		PrimaryKey("ID")
	return s
}

// TestDecimalColumnRoundTrip: a decimal column gives back what was stored,
// kind included: a Real, an Int, and a NULL of kind KReal.
func TestDecimalColumnRoundTrip(t *testing.T) {
	db := Open(decimalSchema(), Config{})
	txn := db.Begin()
	for id, bal := range []Datum{Real(big.NewRat(355, 113)), I64(7), NullDatum(KReal)} {
		if _, err := txn.Exec(nil, sqlast.MustParse(`INSERT INTO Acct (ID, BAL) VALUES (?, ?)`),
			[]Datum{I64(int64(id)), bal}); err != nil {
			t.Fatal(err)
		}
		rs, err := txn.Exec(nil, sqlast.MustParse(`SELECT a.BAL FROM Acct a WHERE a.ID = ?`), []Datum{I64(int64(id))})
		if err != nil {
			t.Fatal(err)
		}
		if got := rs.rows()[0][0]; got.Null != bal.Null || got.Kind != bal.Kind || got.String() != bal.String() {
			t.Errorf("stored %#v, read back %#v", bal, got)
		}
	}
	txn.Commit()
}

func TestNullColumnsAndIsNull(t *testing.T) {
	db := Open(decimalSchema(), Config{})
	txn := db.Begin()
	// NOTE omitted: stored as NULL.
	if _, err := txn.Exec(nil, sqlast.MustParse(`INSERT INTO Acct (ID, BAL) VALUES (?, ?)`),
		[]Datum{I64(1), RealInt(5)}); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Exec(nil, sqlast.MustParse(`INSERT INTO Acct (ID, BAL, NOTE) VALUES (?, ?, ?)`),
		[]Datum{I64(2), RealInt(6), Str("x")}); err != nil {
		t.Fatal(err)
	}
	rs, err := txn.Exec(nil, sqlast.MustParse(`SELECT a.ID FROM Acct a WHERE a.NOTE IS NULL`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.rows()) != 1 || rs.rows()[0][0].I != 1 {
		t.Errorf("IS NULL rows = %v", rs.rows())
	}
	// Comparisons against NULL are not satisfied.
	rs, _ = txn.Exec(nil, sqlast.MustParse(`SELECT a.ID FROM Acct a WHERE a.NOTE = 'x'`), nil)
	if len(rs.rows()) != 1 || rs.rows()[0][0].I != 2 {
		t.Errorf("= over NULL rows = %v", rs.rows())
	}
	txn.Commit()
}

func TestUpsertRollback(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	txn := db.Begin()
	// Update-arm upsert, then roll back: original value must return.
	exec(t, txn, `INSERT INTO Product (ID, QTY) VALUES (?, ?) ON DUPLICATE KEY UPDATE QTY = ?`,
		I64(1), I64(0), I64(0))
	// Insert-arm upsert.
	exec(t, txn, `INSERT INTO Product (ID, QTY) VALUES (?, ?) ON DUPLICATE KEY UPDATE QTY = ?`,
		I64(70), I64(7), I64(7))
	txn.Rollback()
	check := db.Begin()
	rs := exec(t, check, `SELECT p.QTY FROM Product p WHERE p.ID = ?`, I64(1))
	if rs.rows()[0][0].I != 100 {
		t.Errorf("upsert-update not rolled back: %v", rs.rows()[0][0])
	}
	if rs := exec(t, check, `SELECT * FROM Product p WHERE p.ID = ?`, I64(70)); len(rs.rows()) != 0 {
		t.Errorf("upsert-insert not rolled back")
	}
	check.Commit()
}

func TestDeleteThenReinsert(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	txn := db.Begin()
	exec(t, txn, `DELETE FROM Product WHERE ID = ?`, I64(2))
	exec(t, txn, `INSERT INTO Product (ID, QTY) VALUES (?, ?)`, I64(2), I64(55))
	txn.Commit()
	check := db.Begin()
	rs := exec(t, check, `SELECT p.QTY FROM Product p WHERE p.ID = ?`, I64(2))
	if rs.rows()[0][0].I != 55 {
		t.Errorf("qty = %v", rs.rows()[0][0])
	}
	check.Commit()
}

func TestDeleteBlocksConcurrentPointRead(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	del := db.Begin()
	exec(t, del, `DELETE FROM Product WHERE ID = ?`, I64(1))
	got := make(chan int, 1)
	go func() {
		r := db.Begin()
		rs, err := r.Exec(nil, sqlast.MustParse(`SELECT * FROM Product p WHERE p.ID = ?`), []Datum{I64(1)})
		if err != nil {
			got <- -1
			return
		}
		r.Commit()
		got <- len(rs.rows())
	}()
	select {
	case <-got:
		t.Fatal("reader did not block on deleter's X lock")
	case <-time.After(50 * time.Millisecond):
	}
	del.Rollback() // deletion undone: the reader must see the row again
	if n := <-got; n != 1 {
		t.Errorf("post-rollback read rows = %d", n)
	}
}

// TestConcurrentInsertDeleteConsistency: interleaved inserts and deletes
// across goroutines never corrupt index/row agreement.
func TestConcurrentInsertDeleteConsistency(t *testing.T) {
	db := openTest(t)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := int64(1000 + g*100)
			for i := int64(0); i < 30; i++ {
				id := base + i
				txn := db.Begin()
				if _, err := txn.Exec(nil, sqlast.MustParse(`INSERT INTO OrderItem (ID, O_ID, P_ID, QTY) VALUES (?, ?, ?, ?)`),
					[]Datum{I64(id), I64(id % 7), I64(id % 5), I64(1)}); err != nil {
					txn.Rollback()
					continue
				}
				if i%3 == 0 {
					if _, err := txn.Exec(nil, sqlast.MustParse(`DELETE FROM OrderItem WHERE ID = ?`), []Datum{I64(id)}); err != nil {
						txn.Rollback()
						continue
					}
				}
				txn.Commit()
			}
		}(g)
	}
	wg.Wait()
	// Every row reachable through the secondary index matches a primary
	// row, and vice versa.
	txn := db.Begin()
	for o := int64(0); o < 7; o++ {
		rs, err := txn.Exec(nil, sqlast.MustParse(`SELECT oi.ID, oi.O_ID FROM OrderItem oi WHERE oi.O_ID = ?`), []Datum{I64(o)})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rs.rows() {
			if row[1].I != o {
				t.Fatalf("index returned row with O_ID %d for lookup %d", row[1].I, o)
			}
			prs, err := txn.Exec(nil, sqlast.MustParse(`SELECT * FROM OrderItem oi WHERE oi.ID = ?`), []Datum{row[0]})
			if err != nil || len(prs.rows()) != 1 {
				t.Fatalf("index entry %v has no primary row (err=%v)", row[0], err)
			}
		}
	}
	txn.Commit()
}

func TestUpdateMissingRowTakesGapLock(t *testing.T) {
	// A point UPDATE of an absent key still protects the gap: a
	// concurrent insert into that gap must wait.
	db := openTest(t)
	seed(t, db)
	u := db.Begin()
	rs := exec(t, u, `UPDATE Product SET QTY = ? WHERE ID = ?`, I64(1), I64(50))
	if rs.Affected != 0 {
		t.Fatalf("affected = %d", rs.Affected)
	}
	ins := db.Begin()
	done := make(chan error, 1)
	go func() {
		_, err := ins.Exec(nil, sqlast.MustParse(`INSERT INTO Product (ID, QTY) VALUES (?, ?)`), []Datum{I64(50), I64(1)})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("insert did not block on the update's gap lock (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	u.Commit()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	ins.Commit()
}

func TestStatementDelayCharged(t *testing.T) {
	db := Open(testSchema(), Config{StatementDelay: 20 * time.Millisecond})
	txn := db.Begin()
	start := time.Now()
	exec(t, txn, `INSERT INTO Product (ID, QTY) VALUES (?, ?)`, I64(1), I64(1))
	if el := time.Since(start); el < 20*time.Millisecond {
		t.Errorf("statement returned in %v, want >= 20ms", el)
	}
	txn.Commit()
}

func TestExecErrors(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	txn := db.Begin()
	// Unsupported: updating a primary key column.
	if _, err := txn.Exec(nil, sqlast.MustParse(`UPDATE Product SET ID = ? WHERE ID = ?`), []Datum{I64(9), I64(1)}); err == nil {
		t.Error("primary-key update should fail")
	}
	// NULL primary key.
	if _, err := txn.Exec(nil, sqlast.MustParse(`INSERT INTO Product (QTY) VALUES (?)`), []Datum{I64(1)}); err == nil {
		t.Error("NULL primary key should fail")
	}
	txn.Rollback()
	// Duplicate via unique secondary keeps the statement error typed.
	t2 := db.Begin()
	exec(t, t2, `INSERT INTO Users (ID, EMAIL) VALUES (?, ?)`, I64(1), Str("a"))
	_, err := t2.Exec(nil, sqlast.MustParse(`INSERT INTO Users (ID, EMAIL) VALUES (?, ?)`), []Datum{I64(2), Str("a")})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("unique violation err = %v", err)
	}
	t2.Commit()
}
