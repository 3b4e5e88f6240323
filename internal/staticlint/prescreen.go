package staticlint

import "fmt"

// Analyzer 1: the template-level pre-screen. It reports read-then-write
// lock upgrades within one transaction shape; the findings carry
// Analyzer "prescreen". Write-order inversions between shapes are the
// conflicting edges of the cross-API canonical order (canonical.go,
// `weseer vet -canonical-order`), one global order instead of a warning
// per pair.

// prescreenTxns runs Analyzer 1 over transaction shapes: each
// read-then-write lock upgrade is one lock-order-inversion finding.
func prescreenTxns(shapes []TxnShape) []Finding {
	var out []Finding
	for _, sh := range shapes {
		out = append(out, upgradeFindings(sh)...)
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
	for i, st := range sh.Stmts {
		wt := st.Stmt.WriteTable()
		for _, table := range st.Stmt.Tables() {
			if table != wt {
				if _, ok := firstRead[table]; !ok {
					firstRead[table] = i
				}
				continue
			}
			ri, ok := firstRead[table]
			if !ok || seen[table] {
				continue
			}
			seen[table] = true
			out = append(out, Finding{
				Analyzer: "prescreen", Kind: KindLockOrderInversion, Severity: SevWarn,
				File: st.File, Line: st.Line, Func: sh.API, Table: table,
				Detail: fmt.Sprintf("shared lock from stmt %d is upgraded by the write at stmt %d; two concurrent %s transactions can upgrade-deadlock", ri, i, sh.API),
			})
		}
	}
	return out
}
