package minidb

import (
	"errors"
	"testing"

	"weseer/internal/sqlast"
)

var updateQty = sqlast.MustParse(`UPDATE Product SET QTY = ? WHERE ID = ?`)

// tryUpdate sets product id's quantity through TryExec.
func tryUpdate(txn *Txn, id int64) error {
	_, err := txn.TryExec(nil, updateQty, []Datum{I64(0), I64(id)})
	return err
}

// TestTryExecDeadlock: a TryExec that has to queue counts a lock wait and
// returns ErrWouldBlock; the peer's TryExec that closes the cycle is the
// victim, exactly as under Exec.
func TestTryExecDeadlock(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	t1, t2 := db.Begin(), db.Begin()
	defer t1.Rollback()
	exec(t, t1, `UPDATE Product SET QTY = ? WHERE ID = ?`, I64(1), I64(1))
	exec(t, t2, `UPDATE Product SET QTY = ? WHERE ID = ?`, I64(2), I64(2))

	before := db.StatsSnapshot()
	if err := tryUpdate(t1, 2); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("T1 waiting statement: err = %v, want ErrWouldBlock", err)
	}
	if got := db.StatsSnapshot().LockWaits - before.LockWaits; got != 1 {
		t.Errorf("lock waits went up by %d, want 1", got)
	}
	if err := tryUpdate(t2, 1); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("T2 waiting statement: err = %v, want ErrDeadlock", err)
	}
	if t2.State() != TxnAborted {
		t.Errorf("victim state = %d, want TxnAborted", t2.State())
	}
	after := db.StatsSnapshot()
	if got := after.Deadlocks - before.Deadlocks; got != 1 {
		t.Errorf("deadlocks went up by %d, want 1", got)
	}
	if got := after.LockWaits - before.LockWaits; got != 1 {
		t.Errorf("the victim's request counted as a lock wait: %d waits", got)
	}
}

// TestTryExecLeavesOnlyRollback: after ErrWouldBlock the transaction runs
// no statement and does not commit; Rollback succeeds.
func TestTryExecLeavesOnlyRollback(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	holder, waiter := db.Begin(), db.Begin()
	defer holder.Rollback()
	exec(t, holder, `UPDATE Product SET QTY = ? WHERE ID = ?`, I64(1), I64(1))
	if err := tryUpdate(waiter, 1); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("err = %v, want ErrWouldBlock", err)
	}
	if waiter.State() != TxnWaiting {
		t.Errorf("state = %d, want TxnWaiting", waiter.State())
	}
	if _, err := waiter.Exec(nil, updateQty, []Datum{I64(0), I64(3)}); err == nil {
		t.Error("Exec after ErrWouldBlock succeeded")
	}
	if err := tryUpdate(waiter, 3); err == nil {
		t.Error("TryExec after ErrWouldBlock succeeded")
	}
	if err := waiter.Commit(); err == nil {
		t.Error("Commit after ErrWouldBlock succeeded")
	}
	if err := waiter.Rollback(); err != nil {
		t.Errorf("Rollback after ErrWouldBlock: %v", err)
	}
}

// TestRollbackWithdrawsQueuedRequest: rolling back a waiting transaction
// takes its request out of the queue, so the holder's release grants the
// lock to nobody and a third transaction takes it at once.
func TestRollbackWithdrawsQueuedRequest(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	holder, waiter := db.Begin(), db.Begin()
	exec(t, holder, `UPDATE Product SET QTY = ? WHERE ID = ?`, I64(1), I64(1))
	if err := tryUpdate(waiter, 1); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("err = %v, want ErrWouldBlock", err)
	}
	if QueuesOf(waiter) == 0 {
		t.Fatal("the waiting request is in no queue")
	}
	if err := waiter.Rollback(); err != nil {
		t.Fatal(err)
	}
	if n := QueuesOf(waiter); n != 0 {
		t.Errorf("rolled-back transaction is still in %d queue(s)", n)
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	third := db.Begin()
	defer third.Rollback()
	if err := tryUpdate(third, 1); err != nil {
		t.Fatalf("third transaction: %v", err)
	}
}
