package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"weseer/internal/smt"
	"weseer/internal/solver"
)

// memoFormula builds the j-th test formula under a variable prefix, its
// conjuncts optionally mirrored. Distinct j differ in a relative constant
// gap, which no normalization folds, so they get distinct canonical keys;
// a prefix changes nothing but names (same shape); mirroring changes the
// shape but not the canonical key. j == 0 is unsatisfiable.
func memoFormula(prefix string, j int, mirrored bool) smt.Expr {
	a := smt.NewVar(prefix+"a", smt.SortInt)
	b := smt.NewVar(prefix+"b", smt.SortInt)
	s := smt.NewVar(prefix+"s", smt.SortString)
	parts := []smt.Expr{
		smt.Lt(a, b),
		smt.Le(b, smt.Add(a, smt.Int(int64(j)))),
		smt.Ne(a, smt.Int(7)),
		smt.Eq(s, smt.Str("paid")),
	}
	if mirrored {
		for l, r := 0, len(parts)-1; l < r; l, r = l+1, r-1 {
			parts[l], parts[r] = parts[r], parts[l]
		}
	}
	return smt.And(parts...)
}

type memoCase struct {
	name    string
	formula smt.Expr
}

func memoCases(keys int) []memoCase {
	var cases []memoCase
	for j := 0; j < keys; j++ {
		for _, prefix := range []string{"A1.", "A2.", "B7!"} {
			for _, mirrored := range []bool{false, true} {
				cases = append(cases, memoCase{
					name:    fmt.Sprintf("%s%d/%v", prefix, j, mirrored),
					formula: memoFormula(prefix, j, mirrored),
				})
			}
		}
	}
	return cases
}

func renderResult(r solver.Result) string {
	if r.Model == nil {
		return r.Status.String()
	}
	return r.Status.String() + " " + r.Model.String()
}

// CheckMemoAgainstDirect is the memo-vs-direct differential. The direct
// discharge — one solver call per formula, on the formula as built — is
// the reference; every formula, sent in order through one memo table as
// phase 3 sends it, must get the reference's verdict, and the table must
// have saved solver calls doing so. Exported for the corpus test in
// package core_test, which (unlike this package) may import the apps.
func CheckMemoAgainstDirect(t *testing.T, formulas []smt.Expr) {
	t.Helper()
	memo := newMemoTable(0)
	var out Stats
	for i, f := range formulas {
		got, _ := memo.solve(context.Background(), f, 0, &out)
		if want := solver.Solve(context.Background(), f); got.Status != want.Status {
			t.Errorf("formula %d: memoized verdict %v, direct solve %v: %s", i, got.Status, want.Status, f)
		}
	}
	if out.SolverCalls >= len(formulas) {
		t.Errorf("%d solver calls for %d formulas: the memo saved nothing", out.SolverCalls, len(formulas))
	}
}

// TestMemoTableConcurrent drives the two-level table from 16 goroutines
// that discharge the same and alpha-equivalent formulas in different
// orders: one Canon per shape, one solver call per canonical key, and
// every caller gets the byte-identical translated model a serial run
// produces. Run under -race -count=10 by verify.sh's race leg.
func TestMemoTableConcurrent(t *testing.T) {
	const keys, workers = 5, 16
	cases := memoCases(keys)
	ctx := context.Background()

	want := map[string]string{}
	serial := newMemoTable(0)
	var serialOut Stats
	for _, c := range cases {
		res, _ := serial.solve(ctx, c.formula, 0, &serialOut)
		want[c.name] = renderResult(res)
	}
	if want["A1.0/false"] != "UNSAT" || want["A1.1/false"] == "UNSAT" {
		t.Fatalf("fixture verdicts off: %q, %q", want["A1.0/false"], want["A1.1/false"])
	}

	memo := newMemoTable(workers)
	outs := make([]Stats, workers)
	hits := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range cases {
				c := cases[(i*7+w*5)%len(cases)] // 7 is coprime to len(cases)
				res, hit := memo.solve(ctx, c.formula, w+1, &outs[w])
				if hit {
					hits[w]++
				}
				if got := renderResult(res); got != want[c.name] {
					t.Errorf("worker %d, %s: got %q, want %q", w, c.name, got, want[c.name])
				}
			}
		}(w)
	}
	wg.Wait()

	calls, allHits := 0, 0
	for w := range outs {
		calls += outs[w].SolverCalls
		allHits += hits[w]
	}
	if calls != keys || serialOut.SolverCalls != keys {
		t.Errorf("solver calls: %d concurrent, %d serial, want %d (one per canonical key)",
			calls, serialOut.SolverCalls, keys)
	}
	if calls+allHits != workers*len(cases) {
		t.Errorf("calls %d + hits %d != %d discharges", calls, allHits, workers*len(cases))
	}
	// Two shapes per key (plain and mirrored); prefixes share a shape.
	if got := len(memo.shapes); got != 2*keys || len(serial.shapes) != 2*keys {
		t.Errorf("canon calls: %d concurrent, %d serial, want %d (one per shape)",
			got, len(serial.shapes), 2*keys)
	}
}

// TestMemoTableCancellation checks that a canceled solve poisons neither
// level: the verdict entry is dropped, the (complete) shape entry stays,
// and a later live discharge of an alpha-variant solves for real.
func TestMemoTableCancellation(t *testing.T) {
	const workers = 16
	memo := newMemoTable(workers)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var out Stats
			res, hit := memo.solve(canceled, memoFormula(fmt.Sprintf("T%d.", w), 3, w%2 == 0), w+1, &out)
			if res.Status != solver.UNKNOWN || res.Model != nil {
				t.Errorf("canceled solve returned %v", renderResult(res))
			}
			_ = hit // an owner and a waiter both bail; either is fine
		}(w)
	}
	wg.Wait()
	if n := len(memo.entries); n != 0 {
		t.Fatalf("%d verdict entries survive canceled solves", n)
	}
	if n := len(memo.shapes); n != 2 {
		t.Fatalf("canon calls = %d, want the 2 shapes canonicalized before the cancel", n)
	}

	var out Stats
	res, hit := memo.solve(context.Background(), memoFormula("live.", 3, false), 0, &out)
	if hit || out.SolverCalls != 1 || res.Status != solver.SAT || res.Model == nil {
		t.Fatalf("live solve after cancel: hit=%v calls=%d result=%s", hit, out.SolverCalls, renderResult(res))
	}
	var freshOut Stats
	fresh, _ := newMemoTable(0).solve(context.Background(), memoFormula("live.", 3, false), 0, &freshOut)
	if renderResult(res) != renderResult(fresh) {
		t.Errorf("result after cancel %q differs from a fresh table's %q", renderResult(res), renderResult(fresh))
	}
	if len(memo.shapes) != 2 {
		t.Errorf("alpha-variant re-canonicalized: %d canon calls", len(memo.shapes))
	}
}

// TestMemoLevelTwoHitBuildsNoExpr: a group whose shape is new but whose
// canonical key is not pays for the canonicalization and nothing else —
// the canonical expression is the owner of a level-two miss's to build. The
// formula is a real cycle formula made unsatisfiable (no model to translate
// back), the second shape the same conjunction with that one conjunct
// moved to the front; the hit must allocate less than half of what building
// its canonical expression alone would.
func TestMemoLevelTwoHitBuildsNoExpr(t *testing.T) {
	ctx := context.Background()
	formulas, err := NewAnalyzer(fig1Schema()).CycleFormulas(ctx, pipelineTraces())
	if err != nil || len(formulas) == 0 {
		t.Fatalf("fixture: %d formulas, err %v", len(formulas), err)
	}
	xs := formulas[0].(*smt.NAry).Xs
	var unsat smt.Expr
	for name, sort := range smt.VarSet(formulas[0]) {
		if v := smt.NewVar(name, sort); sort == smt.SortInt {
			unsat = smt.Lt(v, v)
			break
		}
	}
	plain := &smt.NAry{Conj: true, Xs: append(slices.Clone(xs), unsat)}
	moved := &smt.NAry{Conj: true, Xs: append([]smt.Expr{unsat}, xs...)}

	// The first solve warms the worker's Shape, so the hits below grow no
	// buffer of it.
	memo := newMemoTable(0)
	var out Stats
	if res, hit := memo.solve(ctx, plain, 0, &out); hit || res.Status != solver.UNSAT {
		t.Fatalf("first solve: hit %v, %v", hit, res.Status)
	}
	var sh smt.Shape
	sh.Reset(moved)
	movedKey := string(sh.Key())
	// Forgetting the shape before each run makes every run the hit under
	// test: level one misses, level two hits.
	got := testing.AllocsPerRun(10, func() {
		delete(memo.shapes, movedKey)
		if res, hit := memo.solve(ctx, moved, 0, &out); !hit || res.Status != solver.UNSAT {
			t.Fatalf("reordered formula: hit %v, %v — want a level-two hit", hit, res.Status)
		}
	})
	if len(memo.shapes) != 2 || out.SolverCalls != 1 {
		t.Fatalf("reordered formula: %d shapes, %d solver calls — want a level-two hit on a new shape",
			len(memo.shapes), out.SolverCalls)
	}
	canon := memo.shapes[movedKey].canon
	build := testing.AllocsPerRun(10, func() { canon.Expr() })
	t.Logf("level-two hit: %v allocations; its canonical expression: %v", got, build)
	if got >= build/2 {
		t.Errorf("level-two hit made %v allocations; building its canonical expression takes %v", got, build)
	}
}

// BenchmarkDischargeMemoHit measures what ROADMAP item 2 is about: the
// cost of a group whose verdict is already in the table — shape key,
// two map probes, and (SAT only) the model translated back. The
// formulas are the real cycle formulas of the pipeline fixture.
func BenchmarkDischargeMemoHit(b *testing.B) {
	ctx := context.Background()
	formulas, err := NewAnalyzer(fig1Schema()).CycleFormulas(ctx, pipelineTraces())
	if err != nil || len(formulas) == 0 {
		b.Fatalf("fixture: %d formulas, err %v", len(formulas), err)
	}
	memo := newMemoTable(0)
	var out Stats
	for _, f := range formulas {
		memo.solve(ctx, f, 0, &out)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hit := memo.solve(ctx, formulas[i%len(formulas)], 0, &out); !hit {
			b.Fatal("expected a memo hit")
		}
	}
}
