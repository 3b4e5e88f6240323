package solver_test

import (
	"context"
	"testing"

	"weseer/internal/smt"
	"weseer/internal/solver"
)

// TestSolveAllocs is the allocation ceiling of a warm Solve: heap
// allocations per call of one Solver that has already solved the distinct
// canonical cycle formulas of the Table II apps once, over the same
// formulas again. What is left is the formula's own rewriting (Simplify,
// select expansion), the theories' answers and the model; a workspace
// table reallocated per call breaks the ceiling. It measured 194.4 while
// smt's Int comparisons built two big.Rats each, 132.8 since they
// compare the int64s; the ceiling is that plus 10 %.
func TestSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const ceiling = 146
	var formulas []smt.Expr
	seen := map[string]bool{}
	for _, spec := range []string{"broadleaf", "shopizer"} {
		for _, f := range corpusFormulas(t, spec) {
			if c := smt.Canon(f); !seen[spec+c.Key()] {
				seen[spec+c.Key()] = true
				formulas = append(formulas, c.Expr)
			}
		}
	}
	var sv solver.Solver
	solveAll := func() {
		for _, f := range formulas {
			sv.Solve(context.Background(), f)
		}
	}
	solveAll()
	got := testing.AllocsPerRun(3, solveAll) / float64(len(formulas))
	if got > ceiling {
		t.Errorf("a warm Solve allocates %.1f times per call, ceiling %d", got, ceiling)
	} else {
		t.Logf("a warm Solve allocates %.1f times per call (ceiling %d)", got, ceiling)
	}
}
