package lockmodel

import (
	"fmt"
	"slices"

	"weseer/internal/minidb"
	"weseer/internal/schema"
	"weseer/internal/smt"
	"weseer/internal/sqlast"
	"weseer/internal/trace"
)

// Granularity is a modeled lock's granularity (Alg. 2).
type Granularity uint8

// Lock granularities.
const (
	Row Granularity = iota
	Range
	TableLock
)

func (g Granularity) String() string {
	switch g {
	case Row:
		return "ROW"
	case Range:
		return "RANGE"
	case TableLock:
		return "TABLE"
	}
	return fmt.Sprintf("Granularity(%d)", uint8(g))
}

// Lock is one modeled database lock: the index it is acquired on (nil for
// table locks), granularity, mode, and — for range locks — the predicates
// bounding the protected range.
type Lock struct {
	Table     string
	Index     *schema.Index // nil for TABLE locks
	Gran      Granularity
	Exclusive bool
	// Alias is the statement alias whose access acquired the lock.
	Alias string
	// Preds bound RANGE locks (nil for exclusive ranges, per Alg. 2).
	Preds []sqlast.Pred
}

func (l Lock) String() string {
	ix := "NULL"
	if l.Index != nil {
		ix = l.Index.String()
	}
	return fmt.Sprintf("(%s, %s, %s)", ix, l.Gran, l.mode())
}

// mode is the engine lock mode of a modeled lock, which is S or X: the
// model represents insert intention, the one mode that conflicts on a gap,
// as the inserter's exclusive ROW lock.
func (l Lock) mode() minidb.LockMode {
	if l.Exclusive {
		return minidb.LockX
	}
	return minidb.LockS
}

// GenSharedLocks models the shared locks a statement acquires on the
// target table (Alg. 2). isEmpty reports whether the statement fetched an
// empty result — the case where only range locks protect the read set.
func GenSharedLocks(st sqlast.Stmt, scm *schema.Schema, targetTable string, isEmpty bool) []Lock {
	var locks []Lock
	for _, use := range InferPossibleIndexes(st, scm) {
		if use.Table != targetTable || use.Index == nil {
			continue
		}
		ix := use.Index
		if !isEmpty {
			if ix.Unique && IsPointQuery(ix, use.Preds) {
				locks = append(locks, Lock{Table: targetTable, Index: ix, Gran: Row, Alias: use.Alias})
			} else {
				locks = append(locks, Lock{Table: targetTable, Index: ix, Gran: Range, Alias: use.Alias, Preds: use.Preds})
			}
			if ix.Type == schema.Secondary {
				pri := scm.Table(targetTable).PrimaryIndex()
				locks = append(locks, Lock{Table: targetTable, Index: pri, Gran: Row, Alias: use.Alias})
			}
		} else {
			locks = append(locks, Lock{Table: targetTable, Index: ix, Gran: Range, Alias: use.Alias, Preds: use.Preds})
		}
	}
	if len(locks) == 0 {
		// No usable indexes: the whole table is locked.
		locks = append(locks, Lock{Table: targetTable, Gran: TableLock, Alias: aliasOn(st, targetTable)})
	}
	return locks
}

// GenExclusiveLocks models the exclusive locks a write statement acquires
// on the target table (Alg. 2): a row lock on the primary index for each
// written row, plus row/range locks on every written secondary index.
func GenExclusiveLocks(st sqlast.Stmt, scm *schema.Schema, targetTable string) []Lock {
	t := scm.Table(targetTable)
	alias := aliasOn(st, targetTable)
	locks := []Lock{{
		Table: targetTable, Index: t.PrimaryIndex(), Gran: Row, Exclusive: true, Alias: alias,
	}}
	for _, ix := range writtenIndexes(st, t) {
		if ix.Unique {
			locks = append(locks, Lock{Table: targetTable, Index: ix, Gran: Row, Exclusive: true, Alias: alias})
		} else {
			locks = append(locks, Lock{Table: targetTable, Index: ix, Gran: Range, Exclusive: true, Alias: alias})
		}
	}
	return locks
}

// writtenIndexes returns the secondary indexes a write statement
// modifies: for UPDATE, those covering a SET column; for INSERT and
// DELETE, every secondary index (entries are created or removed).
func writtenIndexes(st sqlast.Stmt, t *schema.Table) []*schema.Index {
	var cols []string
	switch w := st.(type) {
	case *sqlast.Update:
		cols = w.WrittenColumns()
	case *sqlast.Upsert:
		// Conservative: the insert touches every index; no need to look
		// at the ON DUPLICATE KEY UPDATE columns separately.
		return t.SecondaryIndexes()
	case *sqlast.Insert, *sqlast.Delete:
		return t.SecondaryIndexes()
	default:
		return nil
	}
	var out []*schema.Index
	for _, ix := range t.SecondaryIndexes() {
		for _, c := range cols {
			if ix.Covers(c) {
				out = append(out, ix)
				break
			}
		}
	}
	return out
}

// IsPointQuery reports whether the predicates pin every column of the
// index with an equality — the condition for a ROW rather than RANGE lock.
// A nil index pins nothing.
func IsPointQuery(ix *schema.Index, preds []sqlast.Pred) bool {
	if ix == nil {
		return false
	}
	for _, col := range ix.Columns {
		found := false
		for _, p := range preds {
			if p.IsNull || p.Op != smt.EQ {
				continue
			}
			if (p.L.Kind == sqlast.Col && p.L.Column == col) ||
				(p.R.Kind == sqlast.Col && p.R.Column == col) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// aliasOn returns the statement's first alias of the table in sorted
// order, or the table's name when it has none.
func aliasOn(st sqlast.Stmt, table string) string {
	if aliases := sqlast.AliasesOf(st, table); len(aliases) > 0 {
		return aliases[0]
	}
	return table
}

// Collide reports whether two modeled locks conflict: they lie on one
// index, or one of them locks the whole table, and minidb's compatibility
// matrix blocks their modes on a record. A modeled lock is S or X, two S
// locks conflict on neither a record nor a gap, and the model's one
// gap-row conflict (insert intention) is an exclusive ROW lock, so the
// record row decides every pair.
func Collide(a, b Lock) bool {
	if a.Table != b.Table || !minidb.Conflicts(a.mode(), b.mode(), minidb.RecordLock) {
		return false
	}
	return a.Gran == TableLock || b.Gran == TableLock ||
		a.Index != nil && b.Index != nil && a.Index.Name == b.Index.Name
}

// Conflicting reports whether two lock sets contain a colliding pair.
func Conflicting(a, b []Lock) bool {
	for _, la := range a {
		for _, lb := range b {
			if Collide(la, lb) {
				return true
			}
		}
	}
	return false
}

// FilterByPlan keeps the locks whose index appears in the recorded
// concrete execution plan — the Sec. V-D future-work refinement. Locks
// on the primary index always survive (secondary-index hits lock the
// backing primary row regardless of the plan), as do table locks. A nil
// plan means "not recorded": no filtering.
func FilterByPlan(locks []Lock, plan []trace.PlanStep) []Lock {
	if plan == nil {
		return locks
	}
	inPlan := map[string]bool{}
	for _, p := range plan {
		if p.Index != "" {
			inPlan[p.Table+"|"+p.Index] = true
		}
	}
	out := locks[:0:0]
	for _, l := range locks {
		switch {
		case l.Index == nil, l.Index.Type == schema.Primary,
			inPlan[l.Table+"|"+l.Index.Name]:
			out = append(out, l)
		}
	}
	return out
}

// PotentialConflict applies the fine-grained C-edge test: statements
// conflict when they access a common table, at least one writes it, and
// their modeled locks collide on a common index (Sec. V-C3). With
// usePlans, each side's locks are restricted to its recorded execution
// plan.
func PotentialConflict(a, b *trace.Stmt, scm *schema.Schema, usePlans bool) bool {
	return Oriented(a, b, func(w, r *trace.Stmt, table string) bool {
		return Conflicting(planLocks(w, scm, table, usePlans), planLocks(r, scm, table, usePlans))
	})
}

// Oriented applies the C-edge rule of Sec. V-C3 to the statement pair
// (a, b): two statements conflict only through a table one of them writes
// and the other accesses. It calls f(w, r, table) for each orientation in
// which w writes table and r accesses it, (a, b) before (b, a), stops at
// the first call that returns true, and reports whether one did.
func Oriented(a, b *trace.Stmt, f func(w, r *trace.Stmt, table string) bool) bool {
	return orient(a, b, func(st *trace.Stmt) *trace.Stmt { return st }, f)
}

// orient is Oriented over values that each name a statement, st(v) the
// statement v names.
func orient[T any](a, b T, st func(T) *trace.Stmt, f func(w, r T, table string) bool) bool {
	for _, o := range [2][2]T{{a, b}, {b, a}} {
		w, r := o[0], o[1]
		wt := st(w).Parsed.WriteTable()
		if wt != "" && slices.Contains(st(r).Parsed.Tables(), wt) && f(w, r, wt) {
			return true
		}
	}
	return false
}

// ReadLocks models the locks the "reader" side of a conflict holds on the
// table: exclusive locks when the statement itself writes the table,
// shared locks otherwise.
func ReadLocks(st sqlast.Stmt, scm *schema.Schema, table string, isEmpty bool) []Lock {
	if st.WriteTable() == table {
		return GenExclusiveLocks(st, scm, table)
	}
	return GenSharedLocks(st, scm, table, isEmpty)
}
