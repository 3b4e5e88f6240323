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
		for _, f := range cycles {
			if c := smt.Canon(f); !seen[spec+c.Key()] {
				seen[spec+c.Key()] = true
				formulas = append(formulas, c.Expr)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var stats solver.Stats
	for i := 0; i < b.N; i++ {
		for _, f := range formulas {
			res := solver.Solve(f)
			if res.Status == solver.UNKNOWN {
				b.Fatalf("UNKNOWN on %s", f)
			}
			stats.Add(res.Stats)
		}
	}
	b.ReportMetric(float64(len(formulas)), "formulas/op")
	b.ReportMetric(float64(stats.TheoryCalls)/float64(b.N), "theory_calls/op")
}
