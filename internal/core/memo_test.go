package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"weseer/internal/obs"
	"weseer/internal/schema"
	"weseer/internal/smt"
	"weseer/internal/solver"
	"weseer/internal/trace"
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

// solveFormula discharges f through the table with its smt.Shape key as
// the level-one key — sound, since equal shape keys mean formulas equal up
// to renaming — so the table's levels can be driven formula by formula.
func solveFormula(m *memoTable, ctx context.Context, f smt.Expr, tid int, out *Stats) (solver.Result, bool) {
	var sh smt.Shape
	sh.Reset(f)
	res, _, hit := m.solve(ctx, sh.Key(), func() smt.Expr { return f }, tid, out)
	return res, hit
}

// testGroups returns a fresh run over the traces on the given number of
// workers, and the coarse cycles of its enumeration that pass the lock
// filter: the groups phase 3 discharges, in enumeration order.
func testGroups(t testing.TB, scm *schema.Schema, traces []*trace.Trace, workers int, opts ...Option) (*run, []Cycle) {
	t.Helper()
	r := NewAnalyzer(scm, append([]Option{WithParallelism(workers)}, opts...)...).newRun()
	chains, _, err := r.flattenEnumerate(context.Background(), traces)
	if err != nil {
		t.Fatal(err)
	}
	r.settle(chains)
	var groups []Cycle
	for _, ch := range chains {
		for _, c := range ch.cycles {
			if tm := r.templates(c, &r.memo.scratch[0]); tm[0].Collide && tm[1].Collide {
				groups = append(groups, c)
			}
		}
	}
	return r, groups
}

// solveGroup discharges one group through r's memo as phase 3 does, on
// worker tid's scratch.
func (r *run) solveGroup(ctx context.Context, c Cycle, tid int, out *Stats) (solver.Result, smt.Expr, bool) {
	sc := &r.memo.scratch[tid]
	t := r.templates(c, sc)
	return r.memo.solve(ctx, r.skeletonKey(c, t, sc), func() smt.Expr { return r.cycleFormula(c, t, sc) }, tid, out)
}

// CheckMemoAgainstDirect is the memo-vs-direct differential. The direct
// discharge — one solver call per group, on its formula as built — is the
// reference; every group the lock filter passes, sent in order through one
// memo table by its skeleton key as phase 3 sends it, must get the
// reference's verdict (a SAT one with the formula it was translated into),
// and the table must have saved solver calls doing so. It returns the
// number of groups. Exported for the corpus test in package core_test,
// which (unlike this package) may import the apps.
func CheckMemoAgainstDirect(t *testing.T, scm *schema.Schema, traces []*trace.Trace) int {
	t.Helper()
	ctx := context.Background()
	r, groups := testGroups(t, scm, traces, 1)
	var out Stats
	sc := &r.memo.scratch[1]
	for i, c := range groups {
		got, built, _ := r.solveGroup(ctx, c, 1, &out)
		f := r.cycleFormula(c, r.templates(c, sc), sc)
		if want := new(solver.Solver).Solve(ctx, f); got.Status != want.Status {
			t.Errorf("group %d: memoized verdict %v, direct solve %v: %s", i, got.Status, want.Status, f)
		}
		if got.Status == solver.SAT && (built == nil || built.String() != f.String()) {
			t.Errorf("group %d: SAT model translated into %v, not the group's formula", i, built)
		}
	}
	if out.SolverCalls >= len(groups) {
		t.Errorf("%d solver calls for %d groups: the memo saved nothing", out.SolverCalls, len(groups))
	}
	return len(groups)
}

// SkeletonAndShapeKeys returns, for every group phase 3 discharges on
// the traces, its skeleton key and the smt.Shape key of its formula: the
// two sides of the memo's proof obligation. Exported for the corpus test
// in package core_test.
func SkeletonAndShapeKeys(t *testing.T, scm *schema.Schema, traces []*trace.Trace) (skel, shape []string) {
	t.Helper()
	r, groups := testGroups(t, scm, traces, 1)
	sc := &r.memo.scratch[1]
	for _, c := range groups {
		tm := r.templates(c, sc)
		skel = append(skel, string(r.skeletonKey(c, tm, sc)))
		sc.sh.Reset(r.cycleFormula(c, tm, sc))
		shape = append(shape, string(sc.sh.Key()))
	}
	return skel, shape
}

// CheckFormulasBuilt runs phase 3 over the traces on the given number of
// workers and checks, on the observer's weseer_edge_cache_hits_total, that
// it instantiated two C-edges per skeleton miss and per SAT hit and none
// for an UNSAT or UNKNOWN hit: those build no formula. It returns the
// run's stats. Exported for the corpus test in package core_test.
func CheckFormulasBuilt(t *testing.T, scm *schema.Schema, traces []*trace.Trace, workers int) Stats {
	t.Helper()
	ctx := context.Background()
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	r := NewAnalyzer(scm, WithParallelism(workers), WithObserver(o)).newRun()
	chains, _, err := r.flattenEnumerate(ctx, traces)
	res := &Result{}
	if err == nil {
		err = r.discharge(ctx, chains, res)
	}
	if err != nil {
		t.Fatal(err)
	}
	satOwners := 0
	for _, s := range r.memo.skels {
		if s.status == solver.SAT {
			satOwners++
		}
	}
	misses, satHits := len(r.memo.skels), res.Stats.SolverSAT-satOwners
	if got, want := o.Metrics.Snapshot()["weseer_edge_cache_hits_total"], float64(2*(misses+satHits)); got != want {
		t.Errorf("p%d: %v C-edges instantiated, want 2 × (%d skeleton misses + %d SAT hits)", workers, got, misses, satHits)
	}
	return res.Stats
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
		res, _ := solveFormula(serial, ctx, c.formula, 0, &serialOut)
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
				res, hit := solveFormula(memo, ctx, c.formula, w+1, &outs[w])
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
	if got := len(memo.skels); got != 2*keys || len(serial.skels) != 2*keys {
		t.Errorf("canon calls: %d concurrent, %d serial, want %d (one per shape)",
			got, len(serial.skels), 2*keys)
	}
}

// TestMemoTableCancellation checks that a canceled solve poisons neither
// level: a canceled owner leaves no entry behind at either, so the next
// caller — an alpha-variant with a live context — solves again, and gets
// what a fresh table gives it.
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
			res, hit := solveFormula(memo, canceled, memoFormula(fmt.Sprintf("T%d.", w), 3, w%2 == 0), w+1, &out)
			if res.Status != solver.UNKNOWN || res.Model != nil || hit {
				t.Errorf("canceled solve returned %v, hit %v", renderResult(res), hit)
			}
		}(w)
	}
	wg.Wait()
	if n, m := len(memo.skels), len(memo.entries); n != 0 || m != 0 {
		t.Fatalf("%d skeleton and %d verdict entries survive canceled solves", n, m)
	}

	var out Stats
	res, hit := solveFormula(memo, context.Background(), memoFormula("live.", 3, false), 0, &out)
	if hit || out.SolverCalls != 1 || res.Status != solver.SAT || res.Model == nil {
		t.Fatalf("live solve after cancel: hit=%v calls=%d result=%s", hit, out.SolverCalls, renderResult(res))
	}
	var freshOut Stats
	fresh, _ := solveFormula(newMemoTable(0), context.Background(), memoFormula("live.", 3, false), 0, &freshOut)
	if renderResult(res) != renderResult(fresh) {
		t.Errorf("result after cancel %q differs from a fresh table's %q", renderResult(res), renderResult(fresh))
	}
}

// TestMemoTableWaitersOnOwner holds a level-one owner inside its formula
// build while other callers of the same key arrive. Waiters get the
// owner's verdict as hits, with no solver call of their own; if the owner
// is canceled instead, a waiter with a live context solves again.
func TestMemoTableWaitersOnOwner(t *testing.T) {
	const waiters = 8
	ctx := context.Background()
	f := memoFormula("A1.", 3, false)
	var sh smt.Shape
	sh.Reset(f)
	key := slices.Clone(sh.Key())
	for _, cancelOwner := range []bool{false, true} {
		memo := newMemoTable(waiters + 1)
		ownerCtx, cancel := context.WithCancel(ctx)
		entered, release := make(chan struct{}), make(chan struct{})
		var ownerOut Stats
		ownerDone := make(chan solver.Result)
		go func() {
			res, _, _ := memo.solve(ownerCtx, key, func() smt.Expr {
				close(entered)
				<-release
				return f
			}, 1, &ownerOut)
			ownerDone <- res
		}()
		<-entered
		results := make([]string, waiters)
		outs := make([]Stats, waiters)
		hits := make([]bool, waiters)
		var wg sync.WaitGroup
		for w := range waiters {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, _, hit := memo.solve(ctx, key, func() smt.Expr { return f }, w+2, &outs[w])
				results[w], hits[w] = renderResult(res), hit
			}()
		}
		if cancelOwner {
			cancel()
		}
		close(release)
		owner := <-ownerDone
		wg.Wait()
		cancel()

		want := renderResult(owner)
		if cancelOwner {
			var freshOut Stats
			fresh, _ := solveFormula(newMemoTable(0), ctx, f, 0, &freshOut)
			want = renderResult(fresh)
		}
		calls := ownerOut.SolverCalls
		for w := range waiters {
			calls += outs[w].SolverCalls
			if results[w] != want {
				t.Errorf("cancelOwner=%v: waiter %d got %q, want %q", cancelOwner, w, results[w], want)
			}
		}
		// Canceled, the owner's solve counts but stands for nothing: one of
		// the waiters re-solves, and the rest hit it.
		if wantCalls := map[bool]int{false: 1, true: 2}[cancelOwner]; calls != wantCalls {
			t.Errorf("cancelOwner=%v: %d solver calls, want %d", cancelOwner, calls, wantCalls)
		}
		if !cancelOwner && slices.Contains(hits, false) {
			t.Errorf("a waiter on a live owner did not hit: %v", hits)
		}
		if len(memo.skels) != 1 || len(memo.entries) != 1 {
			t.Errorf("cancelOwner=%v: %d skeleton and %d verdict entries, want 1 and 1",
				cancelOwner, len(memo.skels), len(memo.entries))
		}
	}
}

// TestMemoTableConcurrentGroups sends the real groups of the pipeline
// fixture through one table from 1, 4 and 16 goroutines, each starting
// at its own group: every group gets, byte for byte, what it gets as the owner of a
// fresh table — SAT hits included, their models translated into their own
// formulas — with one Canon per skeleton key and one solver call per
// canonical key at any parallelism.
func TestMemoTableConcurrentGroups(t *testing.T) {
	ctx := context.Background()
	r, groups := testGroups(t, fig1Schema(), pipelineTraces(), 1)
	want := make([]string, len(groups))
	for i, c := range groups {
		r.memo = newMemoTable(1)
		var out Stats
		res, _, hit := r.solveGroup(ctx, c, 1, &out)
		if hit || out.SolverCalls != 1 {
			t.Fatalf("group %d on a fresh table: hit %v, %d solver calls", i, hit, out.SolverCalls)
		}
		want[i] = renderResult(res)
	}
	skels, calls := -1, -1
	for _, workers := range []int{1, 4, 16} {
		r.memo = newMemoTable(workers)
		outs := make([]Stats, workers)
		satHits := make([]int, workers)
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range groups {
					k := (i + w*5) % len(groups)
					res, _, hit := r.solveGroup(ctx, groups[k], w+1, &outs[w])
					if got := renderResult(res); got != want[k] {
						t.Errorf("p%d, worker %d, group %d: got %q, want %q", workers, w, k, got, want[k])
					}
					if hit && res.Status == solver.SAT {
						satHits[w]++
					}
				}
			}()
		}
		wg.Wait()
		n := 0
		for w := range outs {
			n += outs[w].SolverCalls
		}
		if skels >= 0 && (len(r.memo.skels) != skels || n != calls) {
			t.Errorf("p%d: %d skeleton keys and %d solver calls, %d and %d on one worker",
				workers, len(r.memo.skels), n, skels, calls)
		}
		skels, calls = len(r.memo.skels), n
		if slices.Max(satHits) == 0 {
			t.Errorf("p%d: no SAT hit — the fixture no longer exercises model translation", workers)
		}
	}
	if calls > skels || skels >= len(groups) {
		t.Errorf("%d groups, %d skeleton keys, %d solver calls: want level one to save", len(groups), skels, calls)
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
	if res, hit := solveFormula(memo, ctx, plain, 0, &out); hit || res.Status != solver.UNSAT {
		t.Fatalf("first solve: hit %v, %v", hit, res.Status)
	}
	var sh smt.Shape
	sh.Reset(moved)
	movedKey := string(sh.Key())
	formula := func() smt.Expr { return moved }
	// Forgetting the level-one entry before each run makes every run the
	// hit under test: level one misses, level two hits.
	got := testing.AllocsPerRun(10, func() {
		delete(memo.skels, movedKey)
		if res, _, hit := memo.solve(ctx, sh.Key(), formula, 0, &out); !hit || res.Status != solver.UNSAT {
			t.Fatalf("reordered formula: hit %v, %v — want a level-two hit", hit, res.Status)
		}
	})
	if len(memo.skels) != 2 || out.SolverCalls != 1 {
		t.Fatalf("reordered formula: %d shapes, %d solver calls — want a level-two hit on a new shape",
			len(memo.skels), out.SolverCalls)
	}
	canon := memo.skels[movedKey].canon
	build := testing.AllocsPerRun(10, func() { canon.Expr() })
	t.Logf("level-two hit: %v allocations; its canonical expression: %v", got, build)
	if got >= build/2 {
		t.Errorf("level-two hit made %v allocations; building its canonical expression takes %v", got, build)
	}
}

// BenchGroupHits times whole memo hits, from Cycle to verdict — lock
// filter, skeleton key with its cone, the level-one probe and, for a SAT
// group, the formula built and the model translated back — over those
// groups of the traces whose verdict is SAT (sat) or not, once a first
// discharge has put every key in the table. Exported for
// BenchmarkDischargeMemoHit in package core_test.
func BenchGroupHits(b *testing.B, scm *schema.Schema, traces []*trace.Trace, sat bool) {
	ctx := context.Background()
	r, groups := testGroups(b, scm, traces, 1)
	var hits []Cycle
	var st Stats
	for _, c := range groups {
		if d := r.fineCheckOne(ctx, c, 1, &st); (d != nil) == sat {
			hits = append(hits, c)
		}
	}
	if len(hits) == 0 {
		b.Fatalf("no group with sat=%v", sat)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = Stats{}
		r.fineCheckOne(ctx, hits[i%len(hits)], 1, &st)
		if st.MemoHits != 1 {
			b.Fatal("expected a memo hit")
		}
	}
}

// BenchSkeletonKey times run.skeletonKey warm: every group the lock filter
// passes has had its key built once, so its path conditions' forms are
// known and what is left is numbering the group's symbols and its cone.
func BenchSkeletonKey(b *testing.B, scm *schema.Schema, traces []*trace.Trace) {
	r, groups := testGroups(b, scm, traces, 1)
	sc := &r.memo.scratch[1]
	tmpls := make([][2]*edgeTmpl, len(groups))
	for i, c := range groups {
		tmpls[i] = r.templates(c, sc)
		r.skeletonKey(c, tmpls[i], sc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, c := range groups {
			r.skeletonKey(c, tmpls[j], sc)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(groups)), "ns/group")
}
