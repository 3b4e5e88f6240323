package minidb

import "weseer/internal/sqlast"

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

// GrantsOf reads the transaction's grants out of the lock table, in the
// order they were granted.
func GrantsOf(t *Txn) []Grant {
	lm := t.db.lm
	lm.mu.Lock()
	defer lm.mu.Unlock()
	var out []Grant
	nth := map[resource]int{} // grants of t on the resource already listed
	for _, res := range t.held {
		n := nth[res]
		nth[res]++
		for _, g := range lm.queues[res].grants {
			if g.txn != t {
				continue
			}
			if n == 0 {
				out = append(out, Grant{Table: res.table, Index: res.index, Key: res.key, Gap: res.kind == resGap, Mode: g.mode})
				break
			}
			n--
		}
	}
	return out
}
