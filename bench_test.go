// Design measurements DESIGN.md cites: ablations of its design choices,
// the Fig. 9 formula class, and collection at the 1,056-template scale
// point. The paper's tables and figures are `weseer-bench -exp NAME`. Run
// with:
//
//	go test -run '^$' -bench . -benchmem
//
// Custom metrics carry the funnel quantities: cycles, reports, and stack
// walks per recorded statement.
package weseer_test

import (
	"context"
	"runtime"
	"testing"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/apps/broadleaf"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/core/coretest"
	"weseer/internal/smt"
	"weseer/internal/solver"
	"weseer/internal/trace"
)

// openApp opens an unfixed registry app.
func openApp(b *testing.B, spec string) apps.App {
	b.Helper()
	app, err := apps.Open(spec, apps.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return app
}

func collectOnce(b *testing.B, app string) []*trace.Trace {
	b.Helper()
	traces, err := appkit.Collect(openApp(b, app).UnitTests(), concolic.ModeConcolic)
	if err != nil {
		b.Fatal(err)
	}
	return traces
}

// ---------------------------------------------------------------------------
// Sec. VII-B: coarse baseline and the full funnel

// BenchmarkBaseline_CoarseOnly: STEPDAD/REDACT-style coarse analysis —
// orders of magnitude more cycles than confirmed deadlocks.
func BenchmarkBaseline_CoarseOnly(b *testing.B) {
	traces := collectOnce(b, "broadleaf")
	b.ResetTimer()
	var cycles int
	for i := 0; i < b.N; i++ {
		res := coretest.Analyze(b, broadleaf.Schema(), traces, core.WithCoarseOnly())
		cycles = res.Stats.CoarseCycles
	}
	b.ReportMetric(float64(cycles), "cycles")
}

// BenchmarkAblation_ThreePhase: the full funnel (DESIGN.md choice 1).
func BenchmarkAblation_ThreePhase(b *testing.B) {
	traces := collectOnce(b, "broadleaf")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coretest.Analyze(b, broadleaf.Schema(), traces)
	}
}

// ---------------------------------------------------------------------------
// Solver microbenchmarks

// BenchmarkSolver_Fig9Formula solves a Fig. 9-shaped deadlock formula:
// two conflict conditions plus path conditions.
func BenchmarkSolver_Fig9Formula(b *testing.B) {
	a1 := smt.NewVar("A1.order_id", smt.SortInt)
	a2 := smt.NewVar("A2.order_id", smt.SortInt)
	p1 := smt.NewVar("A1.res4.row0.p.ID", smt.SortInt)
	p2 := smt.NewVar("A2.res4.row0.p.ID", smt.SortInt)
	q1 := smt.NewVar("A1.res4.row0.p.QTY", smt.SortInt)
	q2 := smt.NewVar("A2.res4.row0.p.QTY", smt.SortInt)
	f := smt.And(
		smt.Ne(a1, smt.Int(-1)), smt.Ne(a2, smt.Int(-1)),
		smt.Ge(q1, smt.Int(1)), smt.Ge(q2, smt.Int(1)),
		smt.Eq(smt.NewVar("r1.p.ID", smt.SortInt), p1),
		smt.Eq(smt.NewVar("r1.p.ID", smt.SortInt), p2),
		smt.Eq(smt.NewVar("r2.p.ID", smt.SortInt), p2),
		smt.Eq(smt.NewVar("r2.p.ID", smt.SortInt), p1),
	)
	var sv solver.Solver // one workspace, as a phase-3 worker keeps
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := sv.Solve(context.Background(), f); res.Status != solver.SAT {
			b.Fatalf("status %v", res.Status)
		}
	}
}

// BenchmarkAblation_ConcretePlans runs the analyzer with lock modeling
// restricted to recorded execution plans (the paper's Sec. V-D
// future-work refinement), reporting the resulting report-group count.
func BenchmarkAblation_ConcretePlans(b *testing.B) {
	traces := collectOnce(b, "broadleaf")
	b.ResetTimer()
	var groups int
	for i := 0; i < b.N; i++ {
		res := coretest.Analyze(b, broadleaf.Schema(), traces, core.WithConcretePlans())
		groups = len(res.Deadlocks)
	}
	b.ReportMetric(float64(groups), "reports")
}

// ---------------------------------------------------------------------------
// The two layers of the 1,056-template scale point, outside the harness:
// bisect collection here and enumeration with BenchmarkEnumerate1056 in
// internal/core (`go test -run '^$' -bench 1056 . ./internal/core`).

const gen1056 = "gen:7,templates=1056"

// BenchmarkCollect1056 measures concolic collection of the generated
// corpus and reports the stack captures it pays per recorded statement
// (one per ORM operation: ≈ 1.0) and the runtime.Callers unwinds per
// collection (one per new call site: 0 once the table is warm).
func BenchmarkCollect1056(b *testing.B) {
	app := openApp(b, gen1056)
	b.ReportAllocs()
	b.ResetTimer()
	var walks, unwinds, stmts int64
	for i := 0; i < b.N; i++ {
		walks0, unwinds0 := concolic.StackWalks(), concolic.StackUnwinds()
		traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
		if err != nil {
			b.Fatal(err)
		}
		walks += concolic.StackWalks() - walks0
		unwinds += concolic.StackUnwinds() - unwinds0
		for _, tr := range traces {
			stmts += int64(tr.Stats.Statements)
		}
	}
	b.ReportMetric(float64(walks)/float64(stmts), "walks/stmt")
	b.ReportMetric(float64(unwinds)/float64(b.N), "unwinds/op")
}

// BenchmarkDiagnose1056 runs the path of the gen1056 benchmark's diagnosis
// child, `weseer run` with one analysis worker: open the 1,056-template
// corpus, collect it under concolic execution, analyze, render. Besides
// B/op and allocs/op it reports the garbage collections per op, which
// follow the bytes allocated rather than the objects.
func BenchmarkDiagnose1056(b *testing.B) {
	b.ReportAllocs()
	var gcs uint32
	for i := 0; i < b.N; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		app := openApp(b, gen1056)
		traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.NewAnalyzer(app.Schema(), core.WithParallelism(1)).AnalyzeContext(context.Background(), traces)
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Render()
		runtime.ReadMemStats(&after)
		gcs += after.NumGC - before.NumGC
	}
	b.ReportMetric(float64(gcs)/float64(b.N), "gc/op")
}
