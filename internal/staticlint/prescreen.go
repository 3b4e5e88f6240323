package staticlint

import (
	"fmt"
	"sort"

	"weseer/internal/lockmodel"
	"weseer/internal/schema"
	"weseer/internal/smt"
	"weseer/internal/sqlast"
)

// Analyzer 1: the template-level pre-screen. It re-derives each
// statement's modeled locks (Alg. 2, via lockmodel) and refines the
// index-collision test with row-key reasoning: a ROW lock on a unique
// index whose every column is pinned to a rigid value protects exactly
// one row, so two such locks with different keys can never collide —
// no input assignment moves them. Everything it cannot pin stays
// conservatively "possible", which keeps the screen sound with respect
// to the SMT phase: a cycle the solver could confirm is never refuted.

// pointKeyOn returns the canonical key a statement pins on every column
// of the unique index ix (for the lock acquired under alias), and false
// when any column is unpinned or not statically fixed.
func pointKeyOn(sh StmtShape, alias string, ix *schema.Index) (string, bool) {
	if ix == nil || !ix.Unique {
		return "", false
	}
	preds := sqlast.QueryCondOf(sh.Stmt).Preds
	key := ""
	for _, col := range ix.Columns {
		k, ok := pinnedValue(preds, alias, col, sh)
		if !ok {
			return "", false
		}
		key += k + "|"
	}
	return key, true
}

// pinnedValue finds a top-level equality conjunct binding alias.col to a
// rigid value. Conjuncts are sound pins: every row the statement touches
// satisfies them.
func pinnedValue(preds []sqlast.Pred, alias, col string, sh StmtShape) (string, bool) {
	for _, p := range preds {
		if p.IsNull || p.Op != smt.EQ {
			continue
		}
		colSide, valSide := p.L, p.R
		if !isColRef(colSide, alias, col) {
			colSide, valSide = p.R, p.L
		}
		if !isColRef(colSide, alias, col) {
			continue
		}
		if k, ok := rigidOperand(valSide, sh); ok {
			return k, true
		}
	}
	return "", false
}

func isColRef(o sqlast.Operand, alias, col string) bool {
	return o.Kind == sqlast.Col && o.Column == col && (o.Table == alias || o.Table == "")
}

// readLockUnion is lockmodel.ReadLocks for a template that knows whether
// its read came back empty, and the union over both cases otherwise.
func readLockUnion(sh StmtShape, scm *schema.Schema, table string) []lockmodel.Lock {
	if sh.Empty != EmptyUnknown {
		return lockmodel.ReadLocks(sh.Stmt, scm, table, sh.Empty == EmptyYes)
	}
	locks := lockmodel.ReadLocks(sh.Stmt, scm, table, false)
	return append(locks, lockmodel.ReadLocks(sh.Stmt, scm, table, true)...)
}

// EdgePossible reports whether two statements can truly hold conflicting
// locks — the refined C-edge test. It asks lockmodel what the fine
// phase's PotentialConflict asks (the orientations of Oriented, the lock
// pairs of Collide) and additionally refutes ROW/ROW collisions on a
// unique index whose rigid point keys differ.
func EdgePossible(a, b StmtShape, scm *schema.Schema) bool {
	return lockmodel.Oriented(a, b, shapeStmt, func(w, r StmtShape, tab string) bool {
		return lockSetsCollide(w, lockmodel.GenExclusiveLocks(w.Stmt, scm, tab), r, readLockUnion(r, scm, tab))
	})
}

func shapeStmt(sh StmtShape) sqlast.Stmt { return sh.Stmt }

// lockSetsCollide is lockmodel.Conflicting refined with point-key
// disjointness: a ROW/ROW pair on the same unique index is discounted
// when both sides pin the full key to different rigid values.
func lockSetsCollide(w StmtShape, wl []lockmodel.Lock, r StmtShape, rl []lockmodel.Lock) bool {
	for _, la := range wl {
		for _, lb := range rl {
			if !lockmodel.Collide(la, lb) {
				continue
			}
			if la.Gran == lockmodel.Row && lb.Gran == lockmodel.Row && la.Index.Unique {
				ka, oka := pointKeyOn(w, la.Alias, la.Index)
				kb, okb := pointKeyOn(r, lb.Alias, lb.Index)
				if oka && okb && ka != kb {
					continue // two single-row locks on provably different rows
				}
			}
			return true
		}
	}
	return false
}

// CyclePossible applies the refined edge test to one SC-graph deadlock
// cycle: T1 holds at s1a and waits at s1b, T2 holds at s2a and waits at
// s2b, with C-edges (s1b, s2a) and (s2b, s1a).
func CyclePossible(s1a, s1b, s2a, s2b StmtShape, scm *schema.Schema) bool {
	return EdgePossible(s1b, s2a, scm) && EdgePossible(s2b, s1a, scm)
}

// PairDeadlockPossible reports whether any hold-and-wait cycle between
// the two transaction shapes survives the static screen — the Phase-0
// pair filter. A deadlock needs edges (i1b, i2a) and (i1a, i2b) with
// i1a < i1b and i2a < i2b.
func PairDeadlockPossible(t1, t2 TxnShape, scm *schema.Schema) bool {
	n1, n2 := len(t1.Stmts), len(t2.Stmts)
	type edge struct{ i, j int }
	var edges []edge
	for i := 0; i < n1; i++ {
		for j := 0; j < n2; j++ {
			if EdgePossible(t1.Stmts[i], t2.Stmts[j], scm) {
				edges = append(edges, edge{i, j})
			}
		}
	}
	// maxJBelow[i]: the largest j among edges whose first endpoint is
	// strictly below i — a candidate (i1a, i2b) for a cycle closing at
	// (i1b, i2a) = (i, j) needs i1a < i and i2b > j.
	maxJBelow := make([]int, n1+1)
	for i := range maxJBelow {
		maxJBelow[i] = -1
	}
	for _, e := range edges {
		for i := e.i + 1; i <= n1; i++ {
			if maxJBelow[i] < e.j {
				maxJBelow[i] = e.j
			}
		}
	}
	for _, e := range edges {
		if maxJBelow[e.i] > e.j {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Template-level hazard findings

// tableAccess summarizes one statement's role for the order analysis.
type tableAccess struct {
	pos   int
	table string
	write bool
}

func accessesOf(sh TxnShape) []tableAccess {
	var out []tableAccess
	for i, st := range sh.Stmts {
		wt := st.Stmt.WriteTable()
		for _, t := range st.Stmt.Tables() {
			out = append(out, tableAccess{pos: i, table: t, write: t == wt})
		}
	}
	return out
}

// PrescreenTxns runs Analyzer 1's hazard checks over transaction shapes
// and reports template-level findings: read-then-write lock upgrades,
// cross-transaction write-order inversions, deferred writes flushed past
// reads (d5/d6 class), and gap/next-key escalation on predicates no
// index covers. scm may be nil, which disables the escalation check.
func PrescreenTxns(shapes []TxnShape, scm *schema.Schema) []Finding {
	var out []Finding
	for _, sh := range shapes {
		out = append(out, upgradeFindings(sh)...)
		out = append(out, flushReorderFindings(sh)...)
		if scm != nil {
			out = append(out, gapEscalationFindings(sh, scm)...)
		}
	}
	// The cross-API canonical order lets each inversion cite the global
	// reorder that fixes its whole family instead of a bare pair report.
	co := CanonicalizeShapes(shapes, scm)
	for i := range shapes {
		for j := i + 1; j < len(shapes); j++ {
			out = append(out, inversionFindings(shapes[i], shapes[j], co)...)
		}
	}
	Sort(out)
	return out
}

// upgradeFindings flags read-then-write on the same table within one
// transaction: two concurrent instances S-lock the row, then both block
// upgrading to X — the d2/d14 shape.
func upgradeFindings(sh TxnShape) []Finding {
	firstRead := map[string]int{}
	seen := map[string]bool{}
	var out []Finding
	for _, a := range accessesOf(sh) {
		if !a.write {
			if _, ok := firstRead[a.table]; !ok {
				firstRead[a.table] = a.pos
			}
			continue
		}
		ri, ok := firstRead[a.table]
		if !ok || ri >= a.pos || seen[a.table] {
			continue
		}
		seen[a.table] = true
		st := sh.Stmts[a.pos]
		out = append(out, Finding{
			Analyzer: "prescreen", Kind: KindLockOrderInversion, Severity: SevWarn,
			File: st.File, Line: st.Line, Func: sh.API, Table: a.table,
			Detail: fmt.Sprintf("shared lock from stmt %d is upgraded by the write at stmt %d; two concurrent %s transactions can upgrade-deadlock", ri, a.pos, sh.API),
		})
	}
	return out
}

// inversionFindings flags opposite write orders between two transaction
// shapes: t1 writes A before B while t2 writes B before A. When the
// cross-API canonical order resolves the pair, the finding cites the
// ranked reorder suggestion instead of leaving a bare inversion.
func inversionFindings(t1, t2 TxnShape, co *CanonicalOrder) []Finding {
	order := func(sh TxnShape) map[string]int {
		m := map[string]int{}
		for _, a := range accessesOf(sh) {
			if a.write {
				if _, ok := m[a.table]; !ok {
					m[a.table] = a.pos
				}
			}
		}
		return m
	}
	o1, o2 := order(t1), order(t2)
	tables1 := make([]string, 0, len(o1))
	for t := range o1 {
		tables1 = append(tables1, t)
	}
	sort.Strings(tables1)
	var out []Finding
	for _, ta := range tables1 {
		for _, tb := range tables1 {
			p1a, p1b := o1[ta], o1[tb]
			if ta >= tb || p1a >= p1b {
				continue
			}
			p2a, ok1 := o2[ta]
			p2b, ok2 := o2[tb]
			if !ok1 || !ok2 || p2b >= p2a {
				continue
			}
			st := t1.Stmts[p1b]
			detail := fmt.Sprintf("%s writes %s before %s but %s writes them in the opposite order", t1.API, ta, tb, t2.API)
			na := OrderNode{Table: ta}.Key()
			nb := OrderNode{Table: tb}.Key()
			if s := co.SuggestionFor(na, nb); s != nil {
				detail += fmt.Sprintf("; canonical order acquires %s before %s (reorder suggestion #%d)", s.To, s.From, s.Rank)
			}
			out = append(out, Finding{
				Analyzer: "prescreen", Kind: KindLockOrderInversion, Severity: SevWarn,
				File: st.File, Line: st.Line, Func: t1.API + "/" + t2.API, Table: ta + "," + tb,
				Detail: detail,
			})
		}
	}
	return out
}

// flushReorderFindings flags the d5/d6 class: a write-behind statement
// whose flush slid past reads issued after its trigger site, so the
// transaction's lock order no longer matches the modification order.
func flushReorderFindings(sh TxnShape) []Finding {
	var out []Finding
	for i, st := range sh.Stmts {
		if !st.Deferred || st.Stmt.WriteTable() == "" {
			continue
		}
		if k := st.Stmt.Kind(); k == sqlast.KindInsert || k == sqlast.KindUpsert {
			continue // a deferred INSERT locks a fresh row; d5/d6 needs an UPDATE
		}
		slid := false
		for j := 0; j < i; j++ {
			if r := sh.Stmts[j]; !r.Deferred && r.Stmt.WriteTable() == "" {
				slid = true
				break
			}
		}
		if !slid {
			continue
		}
		out = append(out, Finding{
			Analyzer: "prescreen", Kind: KindFlushReorder, Severity: SevWarn,
			File: st.File, Line: st.Line, Func: sh.API, Table: st.Stmt.WriteTable(),
			Detail: fmt.Sprintf("buffered %s of %s is flushed after later session reads; flush order no longer matches modification order", st.Stmt.Kind(), st.Stmt.WriteTable()),
		})
	}
	return out
}

// gapEscalationFindings flags statements whose predicates no index
// covers: the engine falls back to a full-range next-key scan, locking
// far more than the touched rows (lockmodel/infer.go's nil-index case).
func gapEscalationFindings(sh TxnShape, scm *schema.Schema) []Finding {
	var out []Finding
	for _, st := range sh.Stmts {
		if k := st.Stmt.Kind(); k == sqlast.KindInsert || k == sqlast.KindUpsert {
			continue // inserts lock their new row, not a scanned range
		}
		for _, use := range lockmodel.InferPossibleIndexes(st.Stmt, scm) {
			if use.Index != nil {
				continue
			}
			out = append(out, Finding{
				Analyzer: "prescreen", Kind: KindGapEscalation, Severity: SevInfo,
				File: st.File, Line: st.Line, Func: sh.API, Table: use.Table,
				Detail: fmt.Sprintf("no index matches the predicates on %s; the scan next-key-locks the whole range", use.Table),
			})
		}
	}
	return out
}
