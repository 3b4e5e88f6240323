package smt_test

// The parts of the canonicalization differential that need packages
// which themselves import smt: the analyzer (for real cycle formulas)
// and the solver (for FuzzCanon's semantic check).

import (
	"context"
	"testing"
	"time"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/smt"
	"weseer/internal/solver"
)

// cycleFormulas collects an app's traces and returns its cycle formulas.
func cycleFormulas(t *testing.T, spec string) []smt.Expr {
	t.Helper()
	app, err := apps.Open(spec, apps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
	if err != nil {
		t.Fatal(err)
	}
	formulas, err := core.NewAnalyzer(app.Schema()).CycleFormulas(context.Background(), traces)
	if err != nil {
		t.Fatal(err)
	}
	return formulas
}

// TestCanonAllocationCeiling: with warm scratch — a pooled Shape, as the
// memo table holds them — canonicalizing a shape allocates only what it
// returns (key, names, the compiled nodes, the translation maps), however
// many operands it sorts in however many rounds: no Broadleaf cycle formula
// may take more than a small constant, where the map-based passes took
// about 800, and in particular none builds its canonical expression, which
// alone takes more than twice the ceiling on average.
func TestCanonAllocationCeiling(t *testing.T) {
	const ceiling = 32
	var sh smt.Shape
	worst, exprs := 0.0, 0.0
	formulas := cycleFormulas(t, "broadleaf")
	for _, f := range formulas[:100] {
		sh.Reset(f)
		c := sh.Canon()
		worst = max(worst, testing.AllocsPerRun(3, func() {
			sh.Reset(f)
			sh.Canon()
		}))
		exprs += testing.AllocsPerRun(1, func() { c.Expr() })
	}
	if worst > ceiling {
		t.Errorf("a shape took %v allocations to canonicalize, ceiling %d", worst, ceiling)
	}
	if mean := exprs / 100; mean < 2*ceiling {
		t.Errorf("building a canonical expression takes %v allocations on average — is it built at all?", mean)
	}
	t.Logf("worst shape: %v allocations; mean canonical expression: %v", worst, exprs/100)
}

// TestCanonMatchesOracleOnCorpora runs the oracle differential — and the
// shape-composition property the memo table's first level rests on —
// over every cycle formula of the Table II apps and a generated corpus.
func TestCanonMatchesOracleOnCorpora(t *testing.T) {
	for _, spec := range []string{"broadleaf", "shopizer", "gen:7,templates=96"} {
		formulas := cycleFormulas(t, spec)
		if len(formulas) < 100 {
			t.Fatalf("%s: only %d cycle formulas — corpus broken?", spec, len(formulas))
		}
		for _, f := range formulas {
			smt.CheckCanonAgainstOracle(t, f)
		}
		t.Logf("%s: %d cycle formulas agree with the oracle", spec, len(formulas))
	}
}

// FuzzCanon checks what memoizing on Canon assumes: Canon(f).Expr is
// equisatisfiable with f, and the solver's model of it, translated back as
// the memo table translates it, satisfies f by evaluation — including the
// variables the solver leaves out (seed16: a shifted component's array
// key). Inconclusive solves prove nothing and are skipped.
func FuzzCanon(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x02\x01\x03\x00\x02\x04\x01\x05\x02\x00\x03\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		formula := smt.GenFormula(data)
		smt.CheckCanonAgainstOracle(t, formula)
		c := smt.Canon(formula)
		// Bound each solve: a timed-out one is UNKNOWN and skipped, so a
		// hard instance slows the fuzzer down without stalling it.
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		var sv solver.Solver
		orig := sv.Solve(ctx, formula)
		canon := sv.Solve(ctx, c.Expr)
		if orig.Status == solver.UNKNOWN || canon.Status == solver.UNKNOWN {
			t.Skip("inconclusive")
		}
		if orig.Status != canon.Status {
			t.Fatalf("%s is %v but its canonical form %s is %v", formula, orig.Status, c.Expr, canon.Status)
		}
		if canon.Status == solver.SAT {
			back := smt.TranslateModel(canon.Model, c)
			if !smt.Eval(formula, back).B {
				t.Fatalf("translated model %v does not satisfy %s\ncanonical: %s\nmodel: %v", back, formula, c.Expr, canon.Model)
			}
		}
	})
}
