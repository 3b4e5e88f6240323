package main

import (
	"bytes"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/obs"
	"weseer/internal/solver"
)

// TestFunnelInvariants guards the owner-charged funnel accounting on
// the Table II workload and a generated corpus at parallelism 1, 4, and
// 16: the memoization split SolverCalls + MemoHits == GroupsSolved and
// the two-level ordering SolverCalls <= CanonCalls <= GroupsSolved must
// hold (with the values pinned: a memo change that moves them has to say
// so), Stats.Engine
// must aggregate to the same counters at every worker count (each
// distinct canonical formula is charged exactly once, by the call that
// owned it), and the deterministic funnel must not vary with
// parallelism. The runs are observed, so the exported funnel counters
// are checked against Result.Stats too.
func TestFunnelInvariants(t *testing.T) {
	type target struct {
		name string
		// groups = solver calls + memo hits, over canon calls shapes
		groups, calls, hits, shapes int
	}
	targets := []target{
		{"broadleaf", 199, 102, 97, 156},
		{"shopizer", 127, 124, 3, 124},
		{"gen:7,templates=96", 315, 118, 197, 136},
	}

	for _, tg := range targets {
		app := openApp(tg.name)
		traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
		if err != nil {
			t.Fatalf("%s: collect: %v", tg.name, err)
		}
		var baseline core.Stats
		for i, workers := range []int{1, 4, 16} {
			o := obs.NewObserver()
			res := analyze(app.Schema(), traces, core.WithParallelism(workers), core.WithObserver(o))
			s := res.Stats

			if s.SolverCalls+s.MemoHits != s.GroupsSolved {
				t.Errorf("%s/p%d: SolverCalls %d + MemoHits %d != GroupsSolved %d",
					tg.name, workers, s.SolverCalls, s.MemoHits, s.GroupsSolved)
			}
			if !(s.SolverCalls <= s.CanonCalls && s.CanonCalls <= s.GroupsSolved) {
				t.Errorf("%s/p%d: want SolverCalls %d <= CanonCalls %d <= GroupsSolved %d",
					tg.name, workers, s.SolverCalls, s.CanonCalls, s.GroupsSolved)
			}
			if s.GroupsSolved != tg.groups || s.SolverCalls != tg.calls || s.MemoHits != tg.hits || s.CanonCalls != tg.shapes {
				t.Errorf("%s/p%d: funnel %d = %d + %d over %d shapes, pinned %d = %d + %d over %d",
					tg.name, workers, s.GroupsSolved, s.SolverCalls, s.MemoHits, s.CanonCalls,
					tg.groups, tg.calls, tg.hits, tg.shapes)
			}
			if s.SolverCalls > 0 && s.Engine == (solver.Stats{}) {
				t.Errorf("%s/p%d: Engine counters are all zero after %d solver calls",
					tg.name, workers, s.SolverCalls)
			}
			if i == 0 {
				baseline = s.WithoutTimings()
			} else if got := s.WithoutTimings(); got != baseline {
				t.Errorf("%s/p%d: funnel differs from serial:\n got %+v\nwant %+v",
					tg.name, workers, got, baseline)
			}

			// What the merge adds to Result.Stats the run also publishes,
			// so every counter core.StatsTable names must equal its field
			// (a timing in whole microseconds).
			snap := o.Metrics.Snapshot()
			for i := range core.StatsTable {
				row := &core.StatsTable[i]
				if row.Metric == "" {
					continue
				}
				if got, want := snap[row.Metric], row.MetricValue(&s); got != float64(want) {
					t.Errorf("%s/p%d: metric %s = %v, want %d (Result.Stats)",
						tg.name, workers, row.Metric, got, want)
				}
			}
			if got := snap["weseer_solver_seconds_count"]; got != float64(s.SolverCalls) {
				t.Errorf("%s/p%d: latency histogram count %v != SolverCalls %d",
					tg.name, workers, got, s.SolverCalls)
			}
			t.Logf("%s/p%d: %d groups = %d solver calls + %d memo hits",
				tg.name, workers, s.GroupsSolved, s.SolverCalls, s.MemoHits)
		}
	}
}

// TestMetricsExpositionGolden pins the names, help texts and types of
// every instrument one observer carries after a collection and an
// analysis of a Table II app — dashboards and alerts key on them. The
// golden was recorded before the instruments moved out of internal/obs
// into the packages that feed them; only a deliberate change to what is
// exported may touch it.
func TestMetricsExpositionGolden(t *testing.T) {
	o := obs.NewObserver()
	app := openApp("shopizer")
	traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic, concolic.WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	analyze(app.Schema(), traces, core.WithObserver(o))
	var buf bytes.Buffer
	if err := o.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(l, "# ") {
			lines = append(lines, l)
		}
	}
	sort.Strings(lines)
	want, err := os.ReadFile("testdata/metrics_help.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(lines, "\n") + "\n"; got != string(want) {
		t.Errorf("# HELP / # TYPE lines differ from testdata/metrics_help.golden:\n%s", got)
	}
}

// TestRepeatedAnalysisHeapGrowth is the daemon's view of an analysis:
// the same batch analyzed 50 times in one process, as `weseer serve`
// re-analyzes re-ingested traces. Everything an analysis builds — memo
// table, edge and path-condition memos, the solver sessions' atom indexes
// — is owned by that call, so live heap after a re-analysis is what it
// was before it. The bound is measurement noise; any table that outlives
// its analysis (this corpus hands the memo 136 shapes per run) exceeds it.
func TestRepeatedAnalysisHeapGrowth(t *testing.T) {
	app := openApp("gen:7,templates=96")
	traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
	if err != nil {
		t.Fatal(err)
	}
	liveMB := func() float64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc) / (1 << 20)
	}
	const warm, total = 10, 50
	var base float64
	for i := 1; i <= total; i++ {
		res := analyze(app.Schema(), traces, core.WithParallelism(2))
		if res.Stats.CanonCalls != 136 {
			t.Fatalf("analysis %d: %d canon calls, want 136", i, res.Stats.CanonCalls)
		}
		if i == warm {
			base = liveMB()
		}
	}
	perAnalysis := (liveMB() - base) / (total - warm)
	t.Logf("live heap grows %.2f MB per repeated analysis", perAnalysis)
	if perAnalysis > 0.1 {
		t.Errorf("live heap grows %.2f MB per repeated analysis, want <= 0.1", perAnalysis)
	}
}
