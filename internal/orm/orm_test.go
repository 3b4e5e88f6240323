package orm

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"weseer/internal/concolic"
	"weseer/internal/minidb"
	"weseer/internal/schema"
	"weseer/internal/sqlast"
	"weseer/internal/trace"
)

// fig1Schema is the paper's Fig. 1 schema.
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
		ForeignKey([]string{"O_ID"}, "Orders", []string{"ID"}).
		ForeignKey([]string{"P_ID"}, "Product", []string{"ID"})
	return s
}

func fig1Mapping() *Mapping {
	m := NewMapping(fig1Schema())
	// The paper's Q4: lazy order-items collection fetching three tables.
	m.AddCollection("Orders", Collection{
		Name:        "OrdItems",
		SQL:         `SELECT * FROM OrderItem oi JOIN Orders o ON o.ID = oi.O_ID JOIN Product p ON p.ID = oi.P_ID WHERE oi.O_ID = ?`,
		OwnerParams: []string{"ID"},
		Target:      "oi",
	})
	return m
}

func setup(t *testing.T, mode concolic.Mode) (*Session, *concolic.Engine, *minidb.DB) {
	t.Helper()
	m := fig1Mapping()
	db := minidb.Open(m.Schema(), minidb.Config{LockWaitTimeout: time.Second})
	seed := db.Begin()
	mustExec := func(sql string, ps ...minidb.Datum) {
		t.Helper()
		if _, err := seed.Exec(sqlast.MustParse(sql), ps); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(`INSERT INTO Orders (ID) VALUES (?)`, minidb.I64(1))
	mustExec(`INSERT INTO Product (ID, QTY) VALUES (?, ?)`, minidb.I64(1), minidb.I64(100))
	mustExec(`INSERT INTO OrderItem (ID, O_ID, P_ID, QTY) VALUES (?, ?, ?, ?)`,
		minidb.I64(1), minidb.I64(1), minidb.I64(1), minidb.I64(5))
	seed.Commit()

	e := concolic.New(mode)
	e.StartConcolic("test")
	return NewSession(m, concolic.NewConn(e, db)), e, db
}

func TestFindCachesAndSkipsSQL(t *testing.T) {
	s, e, _ := setup(t, concolic.ModeConcolic)
	id := e.MakeSymbolic("pid", concolic.Int(1))
	err := s.Transactional(func() error {
		p1 := s.Find("Product", id)
		if p1 == nil {
			return errors.New("product missing")
		}
		p2 := s.Find("Product", id)
		if p1 != p2 {
			t.Error("read cache returned a different instance")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := e.EndConcolic()
	// Exactly one SELECT despite two Finds: the second hit the cache.
	if n := len(tr.AllStmts()); n != 1 {
		t.Fatalf("statements = %d, want 1", n)
	}
}

func TestFindMissing(t *testing.T) {
	s, e, _ := setup(t, concolic.ModeConcolic)
	_ = e
	err := s.Transactional(func() error {
		if got := s.Find("Product", concolic.Int(42)); got != nil {
			t.Errorf("Find(42) = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWriteBehindDefersUpdate(t *testing.T) {
	s, e, db := setup(t, concolic.ModeConcolic)
	err := s.Transactional(func() error {
		p := s.Find("Product", concolic.Int(1))
		qty := p.Get("QTY")
		s.Set(p, "QTY", e.Sub(qty, concolic.Int(5)))
		// The UPDATE is buffered: nothing written yet.
		rows := db.TableRows("Product")
		if rows[0][1].I != 100 {
			t.Errorf("update not deferred: qty = %v", rows[0][1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows := db.TableRows("Product"); rows[0][1].I != 95 {
		t.Errorf("after commit qty = %v", rows[0][1])
	}
	tr := e.EndConcolic()
	stmts := tr.AllStmts()
	if len(stmts) != 2 {
		t.Fatalf("stmts = %d", len(stmts))
	}
	upd := stmts[1]
	if upd.Parsed.Kind() != sqlast.KindUpdate {
		t.Fatalf("second stmt = %s", upd.SQL)
	}
	// The UPDATE's parameter flows from the SELECT's symbolic result.
	if !strings.Contains(upd.Params[0].Sym.String(), "res0.row0") {
		t.Errorf("update param = %v", upd.Params[0].Sym)
	}
	// Trigger code (Set call site, in this test file) differs from the
	// send site (the flush inside Commit).
	if !strings.Contains(upd.Trigger.Top().File, "orm_test.go") {
		t.Errorf("trigger = %v", upd.Trigger)
	}
}

func TestLazyCollectionQ4(t *testing.T) {
	s, e, _ := setup(t, concolic.ModeConcolic)
	err := s.Transactional(func() error {
		o := s.Find("Orders", concolic.Int(1))
		items := s.Lazy(o, "OrdItems")
		if items.Loaded() {
			t.Error("collection loaded before access")
		}
		if tr := e.Trace(); len(tr.AllStmts()) != 1 {
			t.Errorf("lazy collection sent SQL early: %d stmts", len(tr.AllStmts()))
		}
		got := items.Items()
		if len(got) != 1 || got[0].Get("QTY").C.I != 5 {
			t.Fatalf("items = %v", got)
		}
		// Q4 hydrates Product p into the cache: a later Find sends no SQL.
		before := len(e.Trace().AllStmts())
		p := s.Find("Product", got[0].Get("P_ID"))
		if p == nil {
			t.Fatal("product not hydrated")
		}
		if after := len(e.Trace().AllStmts()); after != before {
			t.Errorf("cached Find sent SQL (%d -> %d)", before, after)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPersistNoSelect(t *testing.T) {
	s, e, db := setup(t, concolic.ModeConcolic)
	err := s.Transactional(func() error {
		u := s.NewEntity("Product")
		s.Set(u, "ID", concolic.Int(77))
		s.Set(u, "QTY", concolic.Int(1))
		s.Persist(u)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := e.EndConcolic()
	stmts := tr.AllStmts()
	if len(stmts) != 1 || stmts[0].Parsed.Kind() != sqlast.KindInsert {
		t.Fatalf("persist statements: %v", stmtSQLs(stmts))
	}
	if rows := db.TableRows("Product"); len(rows) != 2 {
		t.Errorf("rows = %d", len(rows))
	}
}

func TestMergeIssuesSelectThenInsert(t *testing.T) {
	// Merge on an absent key = SELECT + INSERT: the d1 pattern.
	s, e, _ := setup(t, concolic.ModeConcolic)
	err := s.Transactional(func() error {
		u := s.NewEntity("Product")
		s.Set(u, "ID", concolic.Int(88))
		s.Set(u, "QTY", concolic.Int(2))
		s.Merge(u)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	stmts := e.EndConcolic().AllStmts()
	if len(stmts) != 2 ||
		stmts[0].Parsed.Kind() != sqlast.KindSelect ||
		stmts[1].Parsed.Kind() != sqlast.KindInsert {
		t.Fatalf("merge statements: %v", stmtSQLs(stmts))
	}
	if !stmts[0].Res.Empty {
		t.Error("merge SELECT should be empty")
	}
}

func TestMergeOnExistingUpdates(t *testing.T) {
	s, e, db := setup(t, concolic.ModeConcolic)
	err := s.Transactional(func() error {
		u := s.NewEntity("Product")
		s.Set(u, "ID", concolic.Int(1))
		s.Set(u, "QTY", concolic.Int(55))
		s.Merge(u)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	stmts := e.EndConcolic().AllStmts()
	if len(stmts) != 2 || stmts[1].Parsed.Kind() != sqlast.KindUpdate {
		t.Fatalf("merge-existing statements: %v", stmtSQLs(stmts))
	}
	if rows := db.TableRows("Product"); rows[0][1].I != 55 {
		t.Errorf("qty = %v", rows[0][1])
	}
}

func TestRemove(t *testing.T) {
	s, e, db := setup(t, concolic.ModeConcolic)
	err := s.Transactional(func() error {
		oi := s.Find("OrderItem", concolic.Int(1))
		s.Remove(oi)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows := db.TableRows("OrderItem"); len(rows) != 0 {
		t.Errorf("rows = %d", len(rows))
	}
	stmts := e.EndConcolic().AllStmts()
	last := stmts[len(stmts)-1]
	if last.Parsed.Kind() != sqlast.KindDelete {
		t.Errorf("last stmt = %s", last.SQL)
	}
}

func TestEarlyFlushReordersStatements(t *testing.T) {
	// Fix f4 moves the ORM flush earlier; the buffered UPDATE must be
	// sent at the Flush call, before a later SELECT.
	s, e, _ := setup(t, concolic.ModeConcolic)
	err := s.Transactional(func() error {
		p := s.Find("Product", concolic.Int(1))
		s.Set(p, "QTY", concolic.Int(7))
		if err := s.Flush(); err != nil {
			return err
		}
		s.Find("Orders", concolic.Int(1))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	stmts := e.EndConcolic().AllStmts()
	kinds := make([]sqlast.StmtKind, len(stmts))
	for i, st := range stmts {
		kinds[i] = st.Parsed.Kind()
	}
	want := []sqlast.StmtKind{sqlast.KindSelect, sqlast.KindUpdate, sqlast.KindSelect}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
}

func TestFlushOrderInsertsBeforeUpdates(t *testing.T) {
	s, e, _ := setup(t, concolic.ModeConcolic)
	err := s.Transactional(func() error {
		p := s.Find("Product", concolic.Int(1))
		s.Set(p, "QTY", concolic.Int(9)) // modified first...
		n := s.NewEntity("Product")
		s.Set(n, "ID", concolic.Int(60))
		s.Set(n, "QTY", concolic.Int(1))
		s.Persist(n) // ...but the INSERT flushes first
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	stmts := e.EndConcolic().AllStmts()
	if stmts[1].Parsed.Kind() != sqlast.KindInsert || stmts[2].Parsed.Kind() != sqlast.KindUpdate {
		t.Fatalf("flush order: %v", stmtSQLs(stmts))
	}
}

func TestTransactionalRollbackOnError(t *testing.T) {
	s, _, db := setup(t, concolic.ModeConcolic)
	boom := errors.New("boom")
	err := s.Transactional(func() error {
		p := s.Find("Product", concolic.Int(1))
		s.Set(p, "QTY", concolic.Int(0))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if rows := db.TableRows("Product"); rows[0][1].I != 100 {
		t.Errorf("rollback failed: qty = %v", rows[0][1])
	}
}

// TestRollbackClearsSession: a rollback leaves nothing of its transaction
// in the session, as Hibernate clears its persistence context. A column
// modified before the rollback is modified again afterwards, and an entity
// persisted before it is not found in the read cache.
func TestRollbackClearsSession(t *testing.T) {
	for _, mode := range []concolic.Mode{concolic.ModeOff, concolic.ModeConcolic} {
		s, _, db := setup(t, mode)
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		s.Set(s.Find("Product", concolic.Int(1)), "QTY", concolic.Int(7))
		s.Rollback()
		err := s.Transactional(func() error {
			s.Set(s.Find("Product", concolic.Int(1)), "QTY", concolic.Int(9))
			return nil
		})
		if rows := db.TableRows("Product"); err != nil || rows[0][1].I != 9 {
			t.Errorf("%s: Set after a rollback: qty = %v, err %v; want 9", mode, rows[0][1], err)
		}

		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		p := s.NewEntity("Product")
		s.Set(p, "ID", concolic.Int(42))
		s.Set(p, "QTY", concolic.Int(1))
		s.Persist(p)
		s.Rollback()
		err = s.Transactional(func() error {
			if got := s.Find("Product", concolic.Int(42)); got != nil {
				t.Errorf("%s: Find after a rolled-back Persist returned %v", mode, got)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestFailedFlushClearsSession: a commit whose flush fails rolls back the
// same way: the next transaction sends none of the failed one's writes.
func TestFailedFlushClearsSession(t *testing.T) {
	for _, mode := range []concolic.Mode{concolic.ModeOff, concolic.ModeConcolic} {
		s, _, db := setup(t, mode)
		err := s.Transactional(func() error {
			s.Set(s.Find("Product", concolic.Int(1)), "QTY", concolic.Int(3))
			dup := s.NewEntity("Orders")
			s.Set(dup, "ID", concolic.Int(1)) // exists: the flush fails
			s.Persist(dup)
			return nil
		})
		if !errors.Is(err, minidb.ErrDuplicateKey) {
			t.Fatalf("%s: err = %v", mode, err)
		}
		if err := s.Transactional(func() error { return nil }); err != nil {
			t.Errorf("%s: the next commit resent the failed writes: %v", mode, err)
		}
		if rows := db.TableRows("Product"); rows[0][1].I != 100 {
			t.Errorf("%s: qty = %v after the failed commit, want 100", mode, rows[0][1])
		}
	}
}

func TestGuardConvertsFlushError(t *testing.T) {
	inner := errors.New("db down")
	err := Guard(func() error {
		panic(&FlushError{Err: inner})
	})
	if !errors.Is(err, inner) {
		t.Fatalf("err = %v", err)
	}
	// Non-FlushError panics propagate.
	defer func() {
		if recover() == nil {
			t.Fatal("foreign panic swallowed")
		}
	}()
	Guard(func() error { panic("other") })
}

func TestDuplicateKeySurfacesAsError(t *testing.T) {
	s, _, _ := setup(t, concolic.ModeConcolic)
	err := s.Transactional(func() error {
		u := s.NewEntity("Product")
		s.Set(u, "ID", concolic.Int(1)) // exists
		s.Set(u, "QTY", concolic.Int(3))
		s.Persist(u)
		return nil
	})
	if !errors.Is(err, minidb.ErrDuplicateKey) {
		t.Fatalf("err = %v", err)
	}
}

func TestUpsertThroughExec(t *testing.T) {
	// Fix f2 replaces check-then-insert with a single UPSERT statement.
	s, e, db := setup(t, concolic.ModeConcolic)
	err := s.Transactional(func() error {
		_, err := s.Exec(
			`INSERT INTO Product (ID, QTY) VALUES (?, ?) ON DUPLICATE KEY UPDATE QTY = ?`,
			[]concolic.Value{concolic.Int(1), concolic.Int(5), concolic.Int(5)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows := db.TableRows("Product"); rows[0][1].I != 5 {
		t.Errorf("qty = %v", rows[0][1])
	}
	stmts := e.EndConcolic().AllStmts()
	if len(stmts) != 1 || stmts[0].Parsed.Kind() != sqlast.KindUpsert {
		t.Fatalf("stmts = %v", stmtSQLs(stmts))
	}
}

func TestSessionSpansTransactions(t *testing.T) {
	// Fig. 1: the order is fetched (and cached) before the transaction;
	// inside the transaction the cached read sends no SQL.
	s, e, _ := setup(t, concolic.ModeConcolic)
	var warm *Entity
	// Outside any transaction: auto-commit SELECT.
	warm = s.Find("Orders", concolic.Int(1))
	if warm == nil {
		t.Fatal("warmup find failed")
	}
	err := s.Transactional(func() error {
		o := s.Find("Orders", concolic.Int(1))
		if o != warm {
			t.Error("cache did not span transactions")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := e.EndConcolic()
	if n := len(tr.AllStmts()); n != 1 {
		t.Errorf("statements = %d, want 1 (warmup only)", n)
	}
	if len(tr.Txns) != 2 {
		t.Errorf("txns = %d (auto-commit + explicit)", len(tr.Txns))
	}
}

func TestModeOffRuns(t *testing.T) {
	// The same application code must run at full speed with tracking off
	// (the workload-generator path for Figs. 10/11).
	s, e, db := setup(t, concolic.ModeOff)
	err := s.Transactional(func() error {
		p := s.Find("Product", concolic.Int(1))
		s.Set(p, "QTY", e.Sub(p.Get("QTY"), concolic.Int(1)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows := db.TableRows("Product"); rows[0][1].I != 99 {
		t.Errorf("qty = %v", rows[0][1])
	}
	if e.EndConcolic() != nil {
		t.Error("ModeOff produced a trace")
	}
}

// ormRound exercises every ORM operation that names a code location:
// find (miss and hit), query, lazy load, set, persist, merge (absent and
// present), remove, ad-hoc exec and the flush that sends the buffered
// writes.
func ormRound(t *testing.T, s *Session) {
	t.Helper()
	err := s.Transactional(func() error {
		p := s.Find("Product", concolic.Int(1))
		s.Find("Product", concolic.Int(1))
		s.Set(p, "QTY", concolic.Int(7))
		s.Query(`SELECT * FROM OrderItem oi WHERE oi.O_ID = ?`, []concolic.Value{concolic.Int(1)}, "oi")
		s.Lazy(s.Find("Orders", concolic.Int(1)), "OrdItems").Items()
		fresh := s.NewEntity("Product")
		s.Set(fresh, "ID", concolic.Int(50))
		s.Set(fresh, "QTY", concolic.Int(1))
		s.Persist(fresh)
		absent := s.NewEntity("Product")
		s.Set(absent, "ID", concolic.Int(51))
		s.Set(absent, "QTY", concolic.Int(2))
		s.Merge(absent)
		present := s.NewEntity("Product")
		s.Set(present, "ID", concolic.Int(1))
		s.Set(present, "QTY", concolic.Int(3))
		s.Merge(present)
		if err := s.Flush(); err != nil {
			return err
		}
		s.Remove(fresh)
		_, err := s.Exec(`UPDATE Product SET QTY = ? WHERE ID = ?`, []concolic.Value{concolic.Int(9), concolic.Int(51)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestModeOffCapturesNoStacks(t *testing.T) {
	// With the engine off nothing can record a location, so the ORM must
	// not pay for one: the load path (Figs. 10/11) walks no stack at all.
	s, _, _ := setup(t, concolic.ModeOff)
	before := concolic.StackWalks()
	ormRound(t, s)
	if n := concolic.StackWalks() - before; n != 0 {
		t.Errorf("ModeOff round walked %d stacks, want 0", n)
	}
	// Nor does its read cache build the Alg. 1 array or keyOf symbols
	// nothing would read. The fields are concolic's own, so the test looks
	// at them by reflection.
	if len(s.caches) == 0 {
		t.Fatal("ModeOff round left no table cache to inspect")
	}
	for i, c := range s.caches {
		m := reflect.ValueOf(c).Elem()
		if !m.FieldByName("arr").IsNil() {
			t.Errorf("ModeOff cache of %s holds a symbolic array", s.tables[i])
		}
		for j, entries := 0, m.FieldByName("entries"); j < entries.Len(); j++ {
			if !entries.Index(j).FieldByName("sym").IsNil() {
				t.Errorf("ModeOff cache of %s holds a keyOf symbol", s.tables[i])
			}
		}
	}
	// The same round on a recording engine does walk, so the counter
	// would have seen it.
	s, e, _ := setup(t, concolic.ModeInterpret)
	before = concolic.StackWalks()
	ormRound(t, s)
	if n := concolic.StackWalks() - before; n == 0 {
		t.Error("recording round walked no stacks: the counter is blind")
	}
	flushed := 0
	for _, st := range e.EndConcolic().AllStmts() {
		if len(st.Trigger.Frames) == 0 {
			t.Errorf("recorded statement without a trigger: %s", st.SQL)
		}
		if len(st.Sent.Frames) > 0 {
			flushed++
			if !st.IsWrite() || !st.Deferred() {
				t.Errorf("%s: a send site on a statement sent where it was triggered", st.SQL)
			}
		}
	}
	if flushed == 0 {
		t.Error("recording round recorded no flush site")
	}
}

// TestOneWalkPerOperation pins what collection pays per ORM operation: a
// query walks the stack once (its statement is sent where it is
// triggered, so it records no Sent), a transaction persisting k entities
// walks k + 1 times (one trigger per Persist, one flush site shared by the
// k INSERTs), and a commit with nothing buffered walks nothing.
func TestOneWalkPerOperation(t *testing.T) {
	s, e, _ := setup(t, concolic.ModeConcolic)
	walks := func(what string, want int64, op func()) {
		t.Helper()
		before := concolic.StackWalks()
		op()
		if n := concolic.StackWalks() - before; n != want {
			t.Errorf("%s walked %d stacks, want %d", what, n, want)
		}
	}
	walks("Find", 1, func() { s.Find("Product", e.MakeSymbolic("pid", concolic.Int(1))) })
	walks("cached Find", 0, func() { s.Find("Product", concolic.Int(1)) })
	walks("Query", 1, func() {
		s.Query(`SELECT * FROM OrderItem oi WHERE oi.O_ID = ?`, []concolic.Value{concolic.Int(1)}, "oi")
	})
	walks("read-only transaction", 1, func() {
		s.Transactional(func() error { s.Find("Orders", concolic.Int(1)); return nil })
	})
	const k = 3
	walks("transaction persisting 3 entities", k+1, func() {
		err := s.Transactional(func() error {
			for i := 0; i < k; i++ {
				en := s.NewEntity("Product")
				s.Set(en, "ID", concolic.Int(int64(60+i)))
				s.Set(en, "QTY", concolic.Int(1))
				s.Persist(en)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	stmts := e.EndConcolic().AllStmts()
	inserts := stmts[len(stmts)-k:]
	for _, st := range inserts {
		if st.Parsed.Kind() != sqlast.KindInsert || len(st.Sent.Frames) == 0 ||
			&st.Sent.Frames[0] != &inserts[0].Sent.Frames[0] || &st.Sent.Frames[0] == &st.Trigger.Frames[0] {
			t.Errorf("%s: trigger %v sent %v — want one shared flush site", st.SQL, st.Trigger, st.Sent)
		}
	}
	for _, st := range stmts[:len(stmts)-k] {
		if st.Sent.Frames != nil {
			t.Errorf("%s: a query records a Sent %v", st.SQL, st.Sent)
		}
	}
}

func stmtSQLs(stmts []*trace.Stmt) []string {
	out := make([]string, len(stmts))
	for i, s := range stmts {
		out[i] = s.SQL
	}
	return out
}
