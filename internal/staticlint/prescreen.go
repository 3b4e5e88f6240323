package staticlint

import (
	"fmt"
	"sort"

	"weseer/internal/lockmodel"
	"weseer/internal/schema"
	"weseer/internal/sqlast"
)

// Analyzer 1: the template-level pre-screen. It reports lock-order
// hazards of transaction shapes; the findings carry Analyzer "prescreen".

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
