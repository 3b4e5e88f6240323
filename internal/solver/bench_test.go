package solver

import (
	"testing"

	"weseer/internal/smt"
)

// benchFormula builds a mid-sized mixed-theory formula shaped like the
// analyzer's cycle formulas: disjunctions of row-equality candidates,
// range constraints, and string discriminators over a handful of
// variables.
func benchFormula() smt.Expr {
	var parts []smt.Expr
	vars := make([]smt.Var, 6)
	for i := range vars {
		vars[i] = smt.NewVar(string(rune('a'+i)), smt.SortInt)
	}
	s0 := smt.NewVar("s0", smt.SortString)
	s1 := smt.NewVar("s1", smt.SortString)
	for i := 0; i < len(vars); i++ {
		v := vars[i]
		w := vars[(i+1)%len(vars)]
		parts = append(parts,
			smt.Or(smt.Eq(v, w), smt.Eq(v, smt.Int(int64(i))), smt.Gt(w, smt.Int(int64(i+2)))),
			smt.Ge(v, smt.Int(0)), smt.Le(v, smt.Int(9)))
	}
	parts = append(parts,
		smt.Or(smt.Eq(s0, smt.Str("pending")), smt.Eq(s0, smt.Str("done"))),
		smt.Or(smt.Ne(s0, s1), smt.Eq(s1, smt.Str("pending"))))
	return smt.And(parts...)
}

// BenchmarkSolveSAT measures a full Solve on a satisfiable
// mixed-theory formula (the phase-3 hot path).
func BenchmarkSolveSAT(b *testing.B) {
	f := benchFormula()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := solve(f); res.Status != SAT {
			b.Fatalf("unexpected status %s", res.Status)
		}
	}
}

// BenchmarkSolveUNSAT measures conflict-driven search and theory-core
// learning on an unsatisfiable variant.
func BenchmarkSolveUNSAT(b *testing.B) {
	x := smt.NewVar("x", smt.SortInt)
	y := smt.NewVar("y", smt.SortInt)
	f := smt.And(benchFormula(),
		smt.Or(smt.Eq(x, smt.Int(1)), smt.Eq(x, smt.Int(2))),
		smt.Or(smt.Eq(y, smt.Int(1)), smt.Eq(y, smt.Int(2))),
		smt.Eq(x, y), smt.Ne(x, y))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := solve(f); res.Status != UNSAT {
			b.Fatalf("unexpected status %s", res.Status)
		}
	}
}
