package minidb

import (
	"fmt"
	"time"

	"weseer/internal/sqlast"
)

// TxnState is a transaction's lifecycle state.
type TxnState uint8

// Transaction states.
const (
	TxnActive TxnState = iota
	TxnCommitted
	TxnAborted
	// TxnWaiting: TryExec left a lock request queued; only Rollback,
	// which withdraws it, is valid.
	TxnWaiting
)

// Txn is a database transaction running strict two-phase locking: every
// lock acquired during statement execution is held until Commit or
// Rollback.
type Txn struct {
	db    *DB
	id    int64
	state TxnState

	// held lists the queue of every grant, in grant order; it and
	// waitingFor are guarded by the lock manager's mutex. state is the
	// transaction's own: only the goroutine running it reads or sets it.
	held       []*lockQueue
	heldArr    [16]*lockQueue // held's first backing array
	waitingFor *lockReq

	undo []undoRec
	// purge lists the delete-marked entries this transaction owns; they
	// are physically removed at commit (InnoDB's purge) and unmarked by
	// the undo log on rollback.
	purge []purgeRec
}

// undoRec is an entry-level undo record: enough to restore one index
// entry to its pre-mutation state. Entry-level undo composes cleanly
// across insert/update/delete/reinsert sequences within a transaction.
type undoRec struct {
	ix  *index
	key string
	// existed reports whether the entry was present before the mutation;
	// when it was, old is its value, a view of the page it was read from.
	existed bool
	old     string
}

type purgeRec struct {
	ix  *index
	key string
}

// Begin starts a transaction.
func (db *DB) Begin() *Txn {
	t := &Txn{db: db, id: db.txnSeq.Add(1)}
	t.held = t.heldArr[:0]
	return t
}

// ID returns the transaction's sequence number.
func (t *Txn) ID() int64 { return t.id }

// State returns the lifecycle state.
func (t *Txn) State() TxnState { return t.state }

// ResultSet is the outcome of one statement.
type ResultSet struct {
	// Cols holds "alias.column" names for SELECT results.
	Cols []string
	Rows [][]Datum
	// Affected counts rows changed by UPDATE/INSERT/DELETE/UPSERT.
	Affected int
}

// Exec executes one statement with the given parameter values. On a
// deadlock or lock-wait timeout the whole transaction is rolled back
// (detect-and-recover) and the error is returned; ErrDuplicateKey fails
// only the statement and leaves the transaction active.
func (t *Txn) Exec(st sqlast.Stmt, params []Datum) (*ResultSet, error) {
	return t.exec(st, params, true)
}

// TryExec is Exec without the wait. When the statement needs a lock
// another transaction holds, the request queues exactly as under Exec —
// one that closes a cycle still aborts the transaction with ErrDeadlock —
// and TryExec returns ErrWouldBlock with the request left queued. The
// transaction is then TxnWaiting and accepts only Rollback.
func (t *Txn) TryExec(st sqlast.Stmt, params []Datum) (*ResultSet, error) {
	return t.exec(st, params, false)
}

func (t *Txn) exec(st sqlast.Stmt, params []Datum, wait bool) (*ResultSet, error) {
	if t.state != TxnActive {
		return nil, ErrTxnDone
	}
	p, err := t.db.prepare(st)
	if err != nil {
		return nil, err
	}
	if got, want := len(params), p.nparams; got != want {
		return nil, fmt.Errorf("minidb: statement %q wants %d params, got %d", st, want, got)
	}
	t.db.statements.Add(1)
	if d := t.db.cfg.StatementDelay; d > 0 {
		time.Sleep(d) // simulated client/server round trip
	}
	undone, purged := len(t.undo), len(t.purge) // a failed statement undoes its writes
	for {
		rs, blocked, err := t.attempt(p, params, undone, purged)
		if blocked == nil {
			if t.db.afterStmt != nil {
				t.db.afterStmt(t, st)
			}
			return rs, err // a failed statement has no result
		}
		// Blocked mid-scan: queue for the contended lock, wait for it, then
		// restart the statement (locks already granted stay held, per 2PL).
		req, err := t.db.lm.enqueue(t, blocked.res, blocked.mode)
		if req != nil {
			if !wait {
				t.state = TxnWaiting
				return nil, ErrWouldBlock
			}
			err = t.db.lm.wait(req, t.db.cfg.LockWaitTimeout)
		}
		if err != nil {
			t.rollbackInternal()
			return nil, err
		}
	}
}

// attempt runs one statement pass under the storage latch. It returns a
// non-nil blocked descriptor when a needed lock is unavailable; the
// caller waits and retries. A statement that fails undoes the writes of
// all its passes, the undo and purge records past undone and purged.
func (t *Txn) attempt(p *prepared, params []Datum, undone, purged int) (rs *ResultSet, blocked *blockedOn, err error) {
	t.db.latch.Lock()
	defer t.db.latch.Unlock()
	ex := &t.db.ex
	ex.txn, ex.params, ex.blocked = t, params, nil
	if n := len(p.plan) - len(ex.steps); n > 0 {
		ex.steps = append(ex.steps, make([]step, n)...)
	}
	for i := range ex.steps {
		ex.steps[i].bound = false
	}
	switch p.kind {
	case sqlast.KindSelect:
		ex.out = ex.out[:0]
		ex.join(p, 0)
		rs = &ResultSet{Cols: p.cols, Rows: ex.result(len(p.out))}
	case sqlast.KindUpdate:
		rs, err = ex.execUpdate(p)
	case sqlast.KindDelete:
		rs = ex.execDelete(p)
	case sqlast.KindInsert, sqlast.KindUpsert:
		rs, err = ex.execInsert(p)
	}
	if ex.blocked != nil {
		return nil, ex.blocked, nil
	}
	if err != nil {
		t.undoTo(undone, purged)
	}
	return rs, nil, err
}

// Commit makes the transaction's effects durable, purges its tombstones,
// and releases its locks.
func (t *Txn) Commit() error {
	if t.state != TxnActive {
		return ErrTxnDone
	}
	if len(t.purge) > 0 {
		t.db.latch.Lock()
		for _, p := range t.purge {
			if v, ok := p.ix.entries.Get(p.key); ok && deleted(v) {
				p.ix.entries.Delete(p.key)
			}
		}
		t.db.latch.Unlock()
	}
	t.state = TxnCommitted
	t.undo = nil
	t.purge = nil
	t.db.lm.ReleaseAll(t)
	t.db.commits.Add(1)
	return nil
}

// Rollback undoes the transaction's effects, withdraws its queued lock
// request if it has one, and releases its locks.
func (t *Txn) Rollback() error {
	switch t.state {
	case TxnCommitted:
		return ErrTxnDone
	case TxnAborted:
		// Already rolled back internally when the engine aborted it.
		return nil
	}
	t.rollbackInternal()
	return nil
}

// rollbackInternal undoes the whole transaction and releases locks. Used
// both for explicit Rollback and engine-initiated aborts (deadlock
// victims).
func (t *Txn) rollbackInternal() {
	t.db.latch.Lock()
	t.undoTo(0, 0)
	t.db.latch.Unlock()
	t.undo, t.purge = nil, nil
	t.state = TxnAborted
	t.db.lm.ReleaseAll(t)
	t.db.aborts.Add(1)
}

// undoTo applies the undo log in reverse down to its first n records and
// drops the purge records past purged. Caller holds the latch.
func (t *Txn) undoTo(n, purged int) {
	for i := len(t.undo) - 1; i >= n; i-- {
		u := t.undo[i]
		if u.existed {
			u.ix.entries.Put(u.key, []byte(u.old))
		} else {
			u.ix.entries.Delete(u.key)
		}
	}
	t.undo, t.purge = t.undo[:n], t.purge[:purged]
}

// Mutation helpers used by the executor: every change to an index entry
// records its pre-state first.

// put writes an index entry, recording undo.
func (t *Txn) put(ix *index, key string, val []byte) {
	old, ok := ix.entries.Put(key, val)
	t.undo = append(t.undo, undoRec{ix: ix, key: key, existed: ok, old: old})
}

// markDeleted writes a primary entry's delete-marked value and tombstones
// its secondary entries, whose keys are given in index order, scheduling
// the physical purge for commit.
func (t *Txn) markDeleted(ts *tableStore, pk string, val []byte, keys []string) {
	t.put(ts.indexes[0], pk, val)
	t.purge = append(t.purge, purgeRec{ix: ts.indexes[0], key: pk})
	for i, ix := range ts.indexes[1:] {
		t.put(ix, keys[i], []byte{deadEntry})
		t.purge = append(t.purge, purgeRec{ix: ix, key: keys[i]})
	}
}
