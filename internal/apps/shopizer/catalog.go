package shopizer

import (
	"strings"

	"weseer/internal/apps/appkit"
	"weseer/internal/core"
	"weseer/internal/sqlast"
	"weseer/internal/trace"
)

// Expectations is the Shopizer portion of Table II.
func Expectations() []appkit.Expectation {
	return []appkit.Expectation{
		{ID: "d14", Apps: "Shopizer", APIs: "Ship,Checkout — Ship,Checkout", Desc: "Price the order's products", Fix: "f9: Force serial execution with app-level locks", Table: "Product"},
		{ID: "d15", Apps: "Shopizer", APIs: "Ship,Checkout — Checkout", Desc: "Price/Commit the order's products", Fix: "f9: Force serial execution with app-level locks", Table: "Product"},
		{ID: "d16", Apps: "Shopizer", APIs: "Checkout — Checkout", Desc: "Commit the order's products", Fix: "f9: Force serial execution with app-level locks", Table: "Product"},
		{ID: "d17", Apps: "Shopizer", APIs: "Checkout — Add2,Add3,Ship,Checkout", Desc: "Commit/Price the order's products", Fix: "f10: Ensure the same locking order", Table: "Product"},
		{ID: "d18", Apps: "Shopizer", APIs: "Checkout — Add2,Add3,Ship,Checkout", Desc: "Commit/Read the cart's products", Fix: "f11: Ensure the same locking order", Table: "Product"},
	}
}

// stmtSite identifies which application routine triggered a statement.
type stmtSite uint8

const (
	siteOther stmtSite = iota
	sitePrice
	siteCommitRead
	siteCommitUpdate
	siteAddCounter
)

func siteOf(s *trace.Stmt) stmtSite {
	for _, f := range s.Trigger.Frames {
		switch {
		case strings.Contains(f.Func, "priceProducts"):
			return sitePrice
		case strings.Contains(f.Func, "readCartProducts"):
			return siteCommitRead
		case strings.Contains(f.Func, "commitProducts"):
			return siteCommitUpdate
		case strings.Contains(f.Func, ").Add"):
			return siteAddCounter
		}
	}
	return siteOther
}

// Classify maps one analyzer report to the Table II catalog. Every
// Shopizer deadlock is on the Product table; the distinguishing signal
// is which application routines the cycle's statements belong to.
// Reports on the cart's private tables return "extra" — statically
// possible cycles the paper's catalog does not include (per-customer
// rows make them unreachable under the evaluated workload).
func Classify(d *core.Deadlock) string {
	onProduct := d.Cycle.Table1 == "Product" || d.Cycle.Table2 == "Product"
	if !onProduct {
		return "extra"
	}
	var hasPrice, hasRead, hasCommit, hasAdd bool
	for _, s := range []*trace.Stmt{d.Cycle.S1a, d.Cycle.S1b, d.Cycle.S2a, d.Cycle.S2b} {
		switch siteOf(s) {
		case sitePrice:
			hasPrice = true
		case siteCommitRead:
			hasRead = true
		case siteCommitUpdate:
			hasCommit = true
		case siteAddCounter:
			hasAdd = true
		}
	}
	switch {
	case hasRead && hasCommit && !hasAdd && !hasPrice:
		// Both sides are inside checkout's commit phase: the commit
		// read-modify-write upgrade (d16).
		return "d16"
	case hasRead:
		return "d18"
	case hasCommit && hasAdd:
		return "d17"
	case hasCommit && hasPrice:
		// Price SELECT against commit UPDATE is d15; price UPDATE against
		// commit UPDATE is an ordering cycle (d17).
		if cycleHasPriceSelect(d) {
			return "d15"
		}
		return "d17"
	case hasCommit:
		return "d16"
	case hasPrice:
		return "d14"
	case hasAdd:
		return "d17"
	default:
		return "extra"
	}
}

func cycleHasPriceSelect(d *core.Deadlock) bool {
	for _, s := range []*trace.Stmt{d.Cycle.S1a, d.Cycle.S1b, d.Cycle.S2a, d.Cycle.S2b} {
		if siteOf(s) == sitePrice && s.Parsed.Kind() == sqlast.KindSelect {
			return true
		}
	}
	return false
}
