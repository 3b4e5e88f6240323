package minidb

import (
	"fmt"
	"slices"
	"strings"

	"weseer/internal/sqlast"
)

// Grant is one granted lock, named for the footprint oracle
// (footprint_test.go): key is the index entry's display form, "+inf" for
// the supremum pseudo-record.
type Grant struct {
	Table, Index, Key string
	Gap               bool
	Mode              LockMode
}

// SetAfterStmt installs the statement observer; call it before the
// database runs its first transaction.
func (db *DB) SetAfterStmt(fn func(*Txn, sqlast.Stmt)) { db.afterStmt = fn }

// PreparedForms returns how many prepared forms the database holds, by
// statement pointer and by text.
func (db *DB) PreparedForms() (byStmt, byText int) {
	db.prepMu.Lock()
	defer db.prepMu.Unlock()
	return len(db.prepared), len(db.preparedBy)
}

// GrantsOf reads the transaction's grants out of the lock table, in the
// order they were granted.
func GrantsOf(t *Txn) []Grant {
	lm := t.db.lm
	lm.mu.Lock()
	defer lm.mu.Unlock()
	names := map[uint32]string{}
	for _, ts := range t.db.tables {
		for _, ix := range ts.indexes {
			names[ix.id] = ix.Name
		}
	}
	var out []Grant
	nth := map[*lockQueue]int{} // grants of t in the queue already listed
	for _, q := range t.held {
		n := nth[q]
		nth[q]++
		for _, g := range q.grants {
			if g.txn != t {
				continue
			}
			if n == 0 {
				out = append(out, Grant{
					Table: lm.tables[q.res.index], Index: names[q.res.index],
					Key: displayKey(q.res.key), Gap: q.res.kind == GapLock, Mode: g.mode,
				})
				break
			}
			n--
		}
	}
	return out
}

// QueuesOf counts the lock-table queues in which t holds a grant or has
// a request queued.
func QueuesOf(t *Txn) int {
	lm := t.db.lm
	lm.mu.Lock()
	defer lm.mu.Unlock()
	n := 0
	for _, q := range lm.queues {
		in := slices.ContainsFunc(q.grants, func(g grant) bool { return g.txn == t }) ||
			slices.ContainsFunc(q.waiters, func(w *lockReq) bool { return w.txn == t })
		if in {
			n++
		}
	}
	return n
}

// displayKey decodes a lock-table key name and renders it the way
// lock_footprint.golden was first recorded (Key.String at the time),
// "+inf" for the supremum. It is the test's own reader of the encoding: a
// name that does not parse back to a key fails loudly.
func displayKey(name string) string {
	if name == "" {
		return "+inf"
	}
	var parts []string
	for s := name; s != ""; {
		tag, val, rest := nextField(s)
		switch tag {
		case 'N':
			val = "NULL"
		case 'I':
			val = fmt.Sprint(fieldInt(val))
		case 'S':
			val = "'" + val + "'"
		case 'R':
		default:
			panic(fmt.Sprintf("minidb: bad key name %q", name))
		}
		parts, s = append(parts, val), rest
	}
	return "(" + strings.Join(parts, ",") + ")"
}
