// Benchmarks regenerating the paper's evaluation (one per table and
// figure, plus ablations of DESIGN.md's design choices). Run with:
//
//	go test -bench=. -benchmem
//
// Custom metrics carry the evaluation quantities: api/s for the Fig. 10
// and Fig. 11 throughput rows, pathconds for the Sec. IV pruning
// experiment, cycles and deadlocks for the diagnosis funnels.
package weseer_test

import (
	"context"
	"testing"
	"time"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/apps/broadleaf"
	"weseer/internal/apps/shopizer"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/core/coretest"
	"weseer/internal/minidb"
	"weseer/internal/smt"
	"weseer/internal/solver"
	"weseer/internal/trace"
	"weseer/internal/workload"
)

// openApp opens a registry app with the named fixes applied.
func openApp(b *testing.B, spec string, db minidb.Config, fixes ...string) apps.App {
	b.Helper()
	app, err := apps.Open(spec, apps.Options{Apply: fixes, DB: db})
	if err != nil {
		b.Fatal(err)
	}
	return app
}

// ---------------------------------------------------------------------------
// Table I / Table II: trace collection and diagnosis

// BenchmarkTable1_TraceCollection measures collecting the Table I unit
// tests' traces under full concolic execution.
func BenchmarkTable1_TraceCollection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		app := openApp(b, "broadleaf", minidb.Config{})
		traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
		if err != nil {
			b.Fatal(err)
		}
		if len(traces) != 7 {
			b.Fatalf("traces = %d", len(traces))
		}
	}
}

func collectOnce(b *testing.B, app string) []*trace.Trace {
	b.Helper()
	traces, err := appkit.Collect(openApp(b, app, minidb.Config{}).UnitTests(), concolic.ModeConcolic)
	if err != nil {
		b.Fatal(err)
	}
	return traces
}

// BenchmarkTable2_Diagnosis measures the full three-phase diagnosis over
// both applications, reporting how many Table II entries were found.
func BenchmarkTable2_Diagnosis(b *testing.B) {
	bl := collectOnce(b, "broadleaf")
	sh := collectOnce(b, "shopizer")
	b.ResetTimer()
	var found int
	for i := 0; i < b.N; i++ {
		blRes := coretest.Analyze(b, broadleaf.Schema(), bl)
		shRes := coretest.Analyze(b, shopizer.Schema(), sh)
		ids := map[string]bool{}
		for _, d := range blRes.Deadlocks {
			ids[broadleaf.Classify(d)] = true
		}
		for _, d := range shRes.Deadlocks {
			ids[shopizer.Classify(d)] = true
		}
		found = 0
		for _, exp := range append(broadleaf.Expectations(), shopizer.Expectations()...) {
			if ids[exp.ID] {
				found++
			}
		}
	}
	b.ReportMetric(float64(found), "deadlocks_found")
	if found != 18 {
		b.Fatalf("found %d of 18 cataloged deadlocks", found)
	}
}

// ---------------------------------------------------------------------------
// Table III: engine-mode overhead

func benchMode(b *testing.B, mode concolic.Mode) {
	for i := 0; i < b.N; i++ {
		app := openApp(b, "broadleaf", minidb.Config{})
		for _, ut := range app.UnitTests() {
			e := concolic.New(mode)
			e.StartConcolic(ut.Name)
			if err := ut.Run(e); err != nil {
				b.Fatal(err)
			}
			e.EndConcolic()
		}
	}
}

// BenchmarkTable3_Original is native execution (no tracking).
func BenchmarkTable3_Original(b *testing.B) { benchMode(b, concolic.ModeOff) }

// BenchmarkTable3_Interpretive records statements without symbolic state.
func BenchmarkTable3_Interpretive(b *testing.B) { benchMode(b, concolic.ModeInterpret) }

// BenchmarkTable3_InterpretiveConcolic is full concolic execution.
func BenchmarkTable3_InterpretiveConcolic(b *testing.B) { benchMode(b, concolic.ModeConcolic) }

// ---------------------------------------------------------------------------
// Fig. 10 / Fig. 11: runtime throughput

// benchWorkload drives 32 clients against a fresh instance of the model
// app with the named fixes applied, once per iteration.
func benchWorkload(b *testing.B, spec string, fixes ...string) {
	var totalAPIs, totalDeadlocks int64
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		app := openApp(b, spec, benchDBCfg(), fixes...)
		res := workload.Run(workload.Config{
			Clients:      32,
			Duration:     200 * time.Millisecond,
			RetryBackoff: time.Millisecond,
			Seed:         42,
		}, app.DB(), app.Flow())
		totalAPIs += res.APICalls
		totalDeadlocks += res.Deadlocks
		elapsed += res.Duration
	}
	b.ReportMetric(float64(totalAPIs)/elapsed.Seconds(), "api/s")
	b.ReportMetric(float64(totalDeadlocks)/float64(b.N), "deadlocks/run")
}

func benchDBCfg() minidb.Config {
	return minidb.Config{StatementDelay: 100 * time.Microsecond, LockWaitTimeout: 100 * time.Millisecond}
}

// BenchmarkFig10_EnableAll: Broadleaf with every fix applied.
func BenchmarkFig10_EnableAll(b *testing.B) { benchWorkload(b, "broadleaf", "all") }

// BenchmarkFig10_DisableAll: Broadleaf with deadlocks left to the
// database's detect-and-recover handling.
func BenchmarkFig10_DisableAll(b *testing.B) { benchWorkload(b, "broadleaf") }

// BenchmarkFig10_DisableF2: the paper's most damaging single ablation.
func BenchmarkFig10_DisableF2(b *testing.B) {
	benchWorkload(b, "broadleaf", "f1", "f3", "f4", "f5", "f6", "f7", "f8")
}

// BenchmarkFig11_EnableAll: Shopizer with every fix applied.
func BenchmarkFig11_EnableAll(b *testing.B) { benchWorkload(b, "shopizer", "all") }

// BenchmarkFig11_DisableAll: unfixed Shopizer.
func BenchmarkFig11_DisableAll(b *testing.B) { benchWorkload(b, "shopizer") }

// ---------------------------------------------------------------------------
// Sec. IV: path-condition pruning

func benchPruning(b *testing.B, opts ...concolic.Option) {
	var conds int
	for i := 0; i < b.N; i++ {
		app := openApp(b, "broadleaf", minidb.Config{})
		traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic, opts...)
		if err != nil {
			b.Fatal(err)
		}
		conds = 0
		for _, tr := range traces {
			conds += tr.Stats.PathConds
		}
	}
	b.ReportMetric(float64(conds), "pathconds")
}

// BenchmarkPruning_WithPruning: driver/built-in/container functions run
// concretely (the Sec. IV simplification).
func BenchmarkPruning_WithPruning(b *testing.B) { benchPruning(b) }

// BenchmarkPruning_WithoutPruning: every library branch becomes a path
// condition (the paper's 656K-condition regime).
func BenchmarkPruning_WithoutPruning(b *testing.B) {
	benchPruning(b, concolic.WithoutPruning())
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := solver.Solve(context.Background(), f, solver.Limits{}); res.Status != solver.SAT {
			b.Fatalf("status %v", res.Status)
		}
	}
}

// BenchmarkMinidb_PointSelect measures the database substrate's hot path.
func BenchmarkMinidb_PointSelect(b *testing.B) {
	app := openApp(b, "broadleaf", minidb.Config{}, "all")
	e := concolic.New(concolic.ModeOff)
	conn := concolic.NewConn(e, app.DB())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn.Begin()
		if _, err := conn.Exec(`SELECT * FROM Product p WHERE p.ID = ?`,
			[]concolic.Value{concolic.Int(int64(i%32 + 1))}, trace.CodeLoc{}, trace.CodeLoc{}); err != nil {
			b.Fatal(err)
		}
		conn.Commit()
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
// bisect collection and enumeration with `go test -bench 1056` alone.

const gen1056 = "gen:7,templates=1056"

// BenchmarkCollect1056 measures concolic collection of the generated
// corpus and reports the stack walks it pays per recorded statement (one
// per ORM operation: ≈ 1.2).
func BenchmarkCollect1056(b *testing.B) {
	app := openApp(b, gen1056, minidb.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	var walks, stmts int64
	for i := 0; i < b.N; i++ {
		before := concolic.StackWalks()
		traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
		if err != nil {
			b.Fatal(err)
		}
		walks += concolic.StackWalks() - before
		for _, tr := range traces {
			stmts += int64(tr.Stats.Statements)
		}
	}
	b.ReportMetric(float64(walks)/float64(stmts), "walks/stmt")
}

// BenchmarkEnumerate1056 measures phases 1–2 alone on that corpus: the
// coarse-only analysis is flatten, the conflict index, pair enumeration
// and the dedup chains, then one report per chain without any solving.
func BenchmarkEnumerate1056(b *testing.B) {
	app := openApp(b, gen1056, minidb.Config{})
	traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles int
	for i := 0; i < b.N; i++ {
		cycles = coretest.Analyze(b, app.Schema(), traces, core.WithCoarseOnly()).Stats.CoarseCycles
	}
	b.ReportMetric(float64(cycles), "cycles")
}
