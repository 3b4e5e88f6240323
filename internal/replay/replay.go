// Package replay automatically reproduces reported deadlocks against a
// live database — the paper's second future-work item (Sec. V-D):
// "develop a framework to automatically reproduce the deadlocks according
// to WeSEER's report. Doing so helps eliminate all false positives and
// removes the burden on developers to manually verify reported
// deadlocks."
//
// A reported cycle names four statements: T1 holds the lock acquired at
// S1a and waits at S1b; T2 holds at S2a and waits at S2b. Reproduction
// opens two transactions against a database holding the collection-time
// state, executes the two lock-holding statements with their recorded
// concrete parameters, and then issues the two waiting statements in
// turn. Every statement runs through minidb's TryExec on the caller's
// goroutine, so the lock manager — not a clock — says whether a statement
// had to wait and whether its wait closed a cycle: if the report is a true
// positive, T1's waiting statement queues and T2's closes the cycle and
// returns ErrDeadlock.
package replay

import (
	"errors"
	"fmt"

	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/minidb"
	"weseer/internal/trace"
)

// Status classifies a reproduction attempt.
type Status uint8

// Reproduction outcomes.
const (
	// Deadlocked: the cycle fired; the engine aborted a victim.
	Deadlocked Status = iota
	// Blocked: one waiting statement queued behind the peer's lock but no
	// cycle closed — a near-miss, typically a conservative report whose
	// second edge did not materialize.
	Blocked
	// NoConflict: both waiting statements ran without queuing; the report
	// did not manifest on this state.
	NoConflict
	// SetupFailed: the holding statements could not be executed (state
	// mismatch, duplicate keys, or T2's holding statement queuing behind
	// T1's).
	SetupFailed
)

func (s Status) String() string {
	switch s {
	case Deadlocked:
		return "DEADLOCKED"
	case Blocked:
		return "blocked (near-miss)"
	case NoConflict:
		return "no conflict"
	case SetupFailed:
		return "setup failed"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Outcome reports one reproduction attempt.
type Outcome struct {
	Status Status
	// Detail carries the distinguishing error or observation.
	Detail string
}

// Reproduce attempts to trigger the reported cycle on db, which must hold
// the state the traces were collected against (rebuild it by re-running
// the unit tests before the traces' own: appkit.Collect in ModeOff). It
// runs S1a, S2a, S1b and S2b in that order and classifies the outcome
// from the lock manager's answers. Both transactions are rolled back
// before returning, so the database state is preserved.
func Reproduce(db *minidb.DB, cyc core.Cycle) Outcome {
	t1, t2 := db.Begin(), db.Begin()
	defer t1.Rollback()
	defer t2.Rollback()

	// Phase 1: take the held locks.
	if err := execStmt(t1, cyc.S1a); err != nil {
		return Outcome{Status: SetupFailed, Detail: fmt.Sprintf("T1 holding stmt: %v", err)}
	}
	if err := execStmt(t2, cyc.S2a); errors.Is(err, minidb.ErrWouldBlock) {
		return Outcome{Status: SetupFailed, Detail: fmt.Sprintf("T2 holding stmt waits for T1 holding stmt %q", cyc.S1a.SQL)}
	} else if err != nil {
		return Outcome{Status: SetupFailed, Detail: fmt.Sprintf("T2 holding stmt: %v", err)}
	}

	// Phase 2: the waiting statements. A statement that needs the peer's
	// lock stays queued; the second closes the cycle if there is one.
	err1 := execStmt(t1, cyc.S1b)
	err2 := execStmt(t2, cyc.S2b)
	switch {
	case errors.Is(err2, minidb.ErrDeadlock):
		return Outcome{Status: Deadlocked, Detail: "T2 aborted as deadlock victim"}
	case errors.Is(err1, minidb.ErrWouldBlock):
		return Outcome{Status: Blocked, Detail: "T1 waiting stmt waits for T2"}
	case errors.Is(err2, minidb.ErrWouldBlock):
		return Outcome{Status: Blocked, Detail: "T2 waiting stmt waits for T1"}
	case err1 != nil:
		return Outcome{Status: NoConflict, Detail: fmt.Sprintf("T1 waiting stmt: %v", err1)}
	case err2 != nil:
		return Outcome{Status: NoConflict, Detail: fmt.Sprintf("T2 waiting stmt: %v", err2)}
	}
	return Outcome{Status: NoConflict}
}

// ReproduceReport rebuilds the collection-time state with mkState and
// attempts every deadlock in the result, returning per-report outcomes.
// mkState must return a fresh database in the pre-collection state plus
// the unit tests that were collected (their prefix is replayed to recover
// each trace's initial state).
func ReproduceReport(res *core.Result, mkState func() (*minidb.DB, []appkit.UnitTest)) []Outcome {
	out := make([]Outcome, len(res.Deadlocks))
	for i, d := range res.Deadlocks {
		db, tests := mkState()
		// Rebuild state up to the earlier of the two involved traces so
		// the recorded concrete keys refer to live rows.
		if _, err := appkit.Collect(tests[:prefixLen(tests, d.APIs[0], d.APIs[1])], concolic.ModeOff); err != nil {
			out[i] = Outcome{Status: SetupFailed, Detail: err.Error()}
			continue
		}
		out[i] = Reproduce(db, d.Cycle)
	}
	return out
}

// prefixLen returns how many unit tests to replay: all tests before the
// earliest API involved in the cycle.
func prefixLen(tests []appkit.UnitTest, api1, api2 string) int {
	idx := len(tests)
	for i, t := range tests {
		if t.Name == api1 || t.Name == api2 {
			idx = i
			break
		}
	}
	return idx
}

// execStmt replays one recorded statement with its concrete parameters.
func execStmt(txn *minidb.Txn, st *trace.Stmt) error {
	params := make([]minidb.Datum, len(st.Params))
	for i, p := range st.Params {
		params[i] = p.Concrete
	}
	_, err := txn.TryExec(nil, st.Parsed, params)
	return err
}
