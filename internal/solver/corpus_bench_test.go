package solver_test

import (
	"context"
	"testing"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/smt"
	"weseer/internal/solver"
)

// corpusFormulas returns every cycle formula of one Table II app.
func corpusFormulas(b testing.TB, spec string) []smt.Expr {
	app, err := apps.Open(spec, apps.Options{})
	if err != nil {
		b.Fatal(err)
	}
	traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
	if err != nil {
		b.Fatal(err)
	}
	cycles, err := core.NewAnalyzer(app.Schema()).CycleFormulas(context.Background(), traces)
	if err != nil {
		b.Fatal(err)
	}
	return cycles
}

// BenchmarkSolveCorpus solves the distinct canonical forms of every cycle
// formula of the Table II apps — a superset of what one `table2` benchmark
// op sends the solver, which stops a group at its first SAT — so that
//
//	go test -run '^$' -bench SolveCorpus -cpuprofile cpu.pprof ./internal/solver
//
// profiles the solver on its real input: BenchmarkSolveSAT/UNSAT barely
// reach Fourier–Motzkin.
func BenchmarkSolveCorpus(b *testing.B) {
	var formulas []smt.Expr
	seen := map[string]bool{}
	for _, spec := range []string{"broadleaf", "shopizer"} {
		for _, f := range corpusFormulas(b, spec) {
			if c := smt.Canon(f); !seen[spec+c.Key()] {
				seen[spec+c.Key()] = true
				formulas = append(formulas, c.Expr)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var stats solver.Stats
	var sv solver.Solver
	for i := 0; i < b.N; i++ {
		for _, f := range formulas {
			res := sv.Solve(context.Background(), f)
			if res.Status == solver.UNKNOWN {
				b.Fatalf("UNKNOWN on %s", f)
			}
			stats.Add(res.Stats)
		}
	}
	b.ReportMetric(float64(len(formulas)), "formulas/op")
	b.ReportMetric(float64(stats.TheoryCalls)/float64(b.N), "theory_calls/op")
}

// BenchmarkCanonCorpus canonicalizes the distinct shapes of the same cycle
// formulas the way the memo table does on a level-one miss — Reset a
// reused Shape, Canon it, read the key — so that the two benchmarks print
// the costs the memo's second level trades against each other: it pays
// ns/op ÷ shapes/op here per shape to save ns/op ÷ formulas/op there per
// hit. verify.sh fails when the first exceeds the second.
func BenchmarkCanonCorpus(b *testing.B) {
	var shapes []smt.Expr
	seen := map[string]bool{}
	var sh smt.Shape
	for _, spec := range []string{"broadleaf", "shopizer"} {
		for _, f := range corpusFormulas(b, spec) {
			sh.Reset(f)
			if k := spec + string(sh.Key()); !seen[k] {
				seen[k] = true
				shapes = append(shapes, f)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range shapes {
			sh.Reset(f)
			if sh.Canon().Key() == "" {
				b.Fatalf("empty key for %s", f)
			}
		}
	}
	b.ReportMetric(float64(len(shapes)), "shapes/op")
}
