package smt

import (
	"fmt"
	"testing"
)

// benchExpr builds a formula with repeated structure, the shape Canon
// sees from the analyzer: per-row conjunctions instantiated
// under different prefixes.
func benchExpr(prefix string) Expr {
	var parts []Expr
	for i := 0; i < 8; i++ {
		id := NewVar(fmt.Sprintf("%sr%d.ID", prefix, i), SortInt)
		st := NewVar(fmt.Sprintf("%sr%d.STATUS", prefix, i), SortString)
		parts = append(parts,
			Or(Eq(id, Int(int64(i))), Eq(id, NewVar(prefix+"key", SortInt))),
			Or(Eq(st, Str("ACTIVE")), Ne(st, Str("DELETED"))),
			Ge(id, Int(0)))
	}
	return And(parts...)
}

// BenchmarkCanon measures full canonicalization (the memo-key path) of
// alpha-variant formulas. Its formula is flat — connective depth 2, no
// arrays — where real cycle formulas nest to 5 and read stored-to arrays;
// BenchmarkCanonCorpus (internal/solver) measures those.
func BenchmarkCanon(b *testing.B) {
	f1 := benchExpr("A1.")
	f2 := benchExpr("A2.")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c1 := Canon(f1)
		c2 := Canon(f2)
		if c1.Key() != c2.Key() {
			b.Fatal("alpha-variants canonicalized differently")
		}
	}
}
