package minidb

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Locking follows InnoDB's design: locks attach to index entries. A
// record lock protects one entry; a gap lock protects the open interval
// below an entry (the supremum pseudo-entry bounds the last gap); a
// next-key lock is the combination, acquired as two resources. Insert
// intention is a special gap-mode request that waits for others' gap
// locks but never blocks anything itself.

// Errors returned by lock acquisition. A deadlock aborts the requesting
// transaction (the victim), mirroring detect-and-recover databases.
var (
	// ErrDeadlock is returned to the victim of a detected deadlock.
	ErrDeadlock = errors.New("minidb: deadlock detected, transaction aborted")
	// ErrLockWaitTimeout is returned when a lock wait exceeds the limit.
	ErrLockWaitTimeout = errors.New("minidb: lock wait timeout, transaction aborted")
	// ErrWouldBlock is returned by TryExec when the statement's lock
	// request had to queue; the transaction then accepts only Rollback.
	ErrWouldBlock = errors.New("minidb: lock request queued, transaction waits")
)

// LockMode is the requested lock strength.
type LockMode uint8

// Lock modes. LockII is insert intention.
const (
	LockS LockMode = iota
	LockX
	LockII
)

func (m LockMode) String() string {
	switch m {
	case LockS:
		return "S"
	case LockX:
		return "X"
	case LockII:
		return "II"
	}
	return "?"
}

// LockKind distinguishes record locks from gap locks.
type LockKind uint8

// Lock kinds: a record lock protects one index entry, a gap lock the open
// interval below it.
const (
	RecordLock LockKind = iota
	GapLock
)

// resource names one lockable unit: an index entry or the gap below it.
type resource struct {
	index uint32 // index.id
	kind  LockKind
	// key is the entry's tree key (datum.go); the empty key is the
	// supremum pseudo-record that bounds the last gap of an index.
	key string
}

// Conflicts is the lock compatibility matrix: it reports whether a granted
// lock blocks a request of another transaction on the same resource. The
// matrix mirrors InnoDB: record S/X conflict as usual; gap locks are
// mutually compatible regardless of mode; insert intention waits for gap
// locks held by others but blocks nothing. The lock manager and the lock
// model (internal/lockmodel) both decide compatibility here.
func Conflicts(held, req LockMode, kind LockKind) bool {
	if kind == RecordLock {
		return held == LockX || req == LockX
	}
	// Gap resource.
	if req == LockII {
		return held == LockS || held == LockX
	}
	return false
}

// covers reports whether holding mode a makes a request for mode b
// redundant on the same resource.
func covers(a, b LockMode) bool {
	if a == b {
		return true
	}
	return a == LockX && b == LockS
}

// grant is one granted lock, held by value in its queue.
type grant struct {
	txn  *Txn
	mode LockMode
}

// lockReq is a queued request, allocated only when the lock is taken.
type lockReq struct {
	txn  *Txn
	mode LockMode
	q    *lockQueue
	// wake receives nil when the lock is granted. Buffered so a releaser
	// never blocks handing the lock over.
	wake chan struct{}
}

type lockQueue struct {
	res     resource
	grants  []grant
	waiters []*lockReq
}

// maxFreeQueues caps the emptied queues kept for reuse: the locks of a few
// dozen in-flight transactions, and a bound on what a burst leaves behind.
const maxFreeQueues = 1024

// lockManager is the global lock table.
type lockManager struct {
	mu     sync.Mutex
	queues map[resource]*lockQueue
	// free holds emptied queues, slices kept, for the next new resource.
	free []*lockQueue
	// tables names the table of each index id, for deadlocksBy.
	tables []string

	deadlocks atomic.Int64
	waits     atomic.Int64

	// deadlocksBy counts deadlock victims by the table of the resource
	// the victim was requesting — the fix-verification loop's evidence
	// that a fix silenced its table. Guarded by mu (the victim site
	// already holds it).
	deadlocksBy map[string]int64
}

func newLockManager() *lockManager {
	return &lockManager{queues: map[resource]*lockQueue{}, deadlocksBy: map[string]int64{}}
}

// queue returns the resource's queue, entering a recycled or new one for
// a resource nobody holds or waits for. Caller holds lm.mu.
func (lm *lockManager) queue(res resource) *lockQueue {
	q := lm.queues[res]
	if q == nil {
		if n := len(lm.free); n > 0 {
			q, lm.free = lm.free[n-1], lm.free[:n-1]
		} else {
			q = &lockQueue{}
		}
		q.res = res
		lm.queues[res] = q
	}
	return q
}

// holdsAtLeast reports whether txn already holds a lock on res covering
// mode. Caller holds lm.mu.
func (lm *lockManager) holdsAtLeast(q *lockQueue, txn *Txn, mode LockMode) bool {
	for _, g := range q.grants {
		if g.txn == txn && covers(g.mode, mode) {
			return true
		}
	}
	return false
}

// grantable reports whether txn may be granted mode on q given current
// grants by other transactions. Caller holds lm.mu.
func (lm *lockManager) grantable(q *lockQueue, txn *Txn, mode LockMode, kind LockKind) bool {
	for _, g := range q.grants {
		if g.txn == txn {
			continue
		}
		if Conflicts(g.mode, mode, kind) {
			return false
		}
	}
	return true
}

// TryAcquire grants the lock iff it is immediately available. It never
// waits and never detects deadlocks. key is the entry's tree key.
func (lm *lockManager) TryAcquire(txn *Txn, index uint32, kind LockKind, key string, mode LockMode) bool {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	q := lm.queue(resource{index, kind, key})
	if lm.holdsAtLeast(q, txn, mode) {
		return true
	}
	if !lm.grantable(q, txn, mode, kind) {
		return false
	}
	lm.grant(q, txn, mode)
	return true
}

// grant records a granted request. Caller holds lm.mu.
func (lm *lockManager) grant(q *lockQueue, txn *Txn, mode LockMode) {
	q.grants = append(q.grants, grant{txn, mode})
	txn.held = append(txn.held, q)
}

// enqueue grants the lock if it is available and otherwise queues the
// request and runs deadlock detection. It returns the queued request, nil
// when the lock was granted, or ErrDeadlock when queuing closed a cycle
// through txn: the request is then withdrawn and txn is the victim.
func (lm *lockManager) enqueue(txn *Txn, res resource, mode LockMode) (*lockReq, error) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	q := lm.queue(res)
	if lm.holdsAtLeast(q, txn, mode) {
		return nil, nil
	}
	if lm.grantable(q, txn, mode, res.kind) {
		lm.grant(q, txn, mode)
		return nil, nil
	}
	req := &lockReq{txn: txn, mode: mode, q: q, wake: make(chan struct{}, 1)}
	q.waiters = append(q.waiters, req)
	txn.waitingFor = req
	if lm.cycleThrough(txn) {
		lm.withdraw(req)
		lm.deadlocks.Add(1)
		lm.deadlocksBy[lm.tables[res.index]]++
		return nil, ErrDeadlock
	}
	lm.waits.Add(1)
	return req, nil
}

// wait blocks until enqueue's request is granted or the wait times out;
// a timed-out request is withdrawn.
func (lm *lockManager) wait(req *lockReq, timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-req.wake:
		return nil
	case <-timer.C:
	}
	// Timed out — but the grant may have raced with the timer.
	lm.mu.Lock()
	defer lm.mu.Unlock()
	select {
	case <-req.wake:
		return nil
	default:
	}
	lm.withdraw(req)
	return ErrLockWaitTimeout
}

// withdraw removes a queued request that was not granted. Caller holds
// lm.mu.
func (lm *lockManager) withdraw(req *lockReq) {
	lm.removeWaiter(req.q, req)
	req.txn.waitingFor = nil
	lm.retire(req.q)
}

func (lm *lockManager) removeWaiter(q *lockQueue, req *lockReq) {
	for i, w := range q.waiters {
		if w == req {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			return
		}
	}
}

// cycleThrough detects whether the waits-for graph contains a cycle
// passing through start. Caller holds lm.mu. Edges: a waiting transaction
// waits for every transaction holding a conflicting grant on the same
// resource.
func (lm *lockManager) cycleThrough(start *Txn) bool {
	// DFS over transactions; blockersOf computes out-edges lazily.
	visited := map[*Txn]bool{}
	var dfs func(t *Txn) bool
	dfs = func(t *Txn) bool {
		if visited[t] {
			return false
		}
		visited[t] = true
		req := t.waitingFor
		if req == nil {
			return false
		}
		for _, g := range req.q.grants {
			if g.txn == t || !Conflicts(g.mode, req.mode, req.q.res.kind) {
				continue
			}
			if g.txn == start {
				return true
			}
			if dfs(g.txn) {
				return true
			}
		}
		return false
	}
	return dfs(start)
}

// ReleaseAll withdraws txn's queued request, drops every lock it holds
// and wakes newly grantable waiters. Called at commit and rollback (strict
// 2PL).
func (lm *lockManager) ReleaseAll(txn *Txn) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if txn.waitingFor != nil {
		lm.withdraw(txn.waitingFor)
	}
	for _, q := range txn.held {
		// held lists a queue once per grant. A repeat visit finds no grant
		// of txn left and is harmless, unless the first emptied the queue
		// (of waiters too: promote grants the first) and recycled it.
		if len(q.grants) == 0 {
			continue
		}
		kept := q.grants[:0]
		for _, g := range q.grants {
			if g.txn != txn {
				kept = append(kept, g)
			}
		}
		clear(q.grants[len(kept):]) // drop the released grants' *Txn
		q.grants = kept
		lm.promote(q)
		lm.retire(q)
	}
	txn.held = nil
}

// retire drops a queue nobody holds or waits for from the table, keeping
// it for reuse. Caller holds lm.mu.
func (lm *lockManager) retire(q *lockQueue) {
	if len(q.grants) > 0 || len(q.waiters) > 0 {
		return
	}
	delete(lm.queues, q.res)
	q.res = resource{}
	if len(lm.free) < maxFreeQueues {
		lm.free = append(lm.free, q)
	}
}

// promote grants queued waiters that are now compatible, in FIFO order.
// Caller holds lm.mu.
func (lm *lockManager) promote(q *lockQueue) {
	kept := q.waiters[:0]
	for _, w := range q.waiters {
		if lm.grantable(q, w.txn, w.mode, q.res.kind) {
			lm.grant(q, w.txn, w.mode)
			w.txn.waitingFor = nil
			w.wake <- struct{}{}
			continue
		}
		kept = append(kept, w)
	}
	clear(q.waiters[len(kept):])
	q.waiters = kept
}
