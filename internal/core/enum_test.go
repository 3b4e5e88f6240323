package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"weseer/internal/minidb"
	"weseer/internal/schema"
	"weseer/internal/smt"
	"weseer/internal/trace"
)

// Differential tests for the indexed phase-1/2 enumeration: the quadratic
// loop (enumerateNaive, below) is the oracle, and the indexed pass must
// reproduce its chains and its report byte-for-byte at any phase-3 worker
// count, on seeded random corpora as well as the curated workloads.

// naiveEnum returns the reference enumFunc: it probes every
// cross-instance transaction pair — O(instances²) in corpus size — and it
// is the deep-copy pipeline: every trace is eagerly renamed once per role
// (renameTrace, rename_test.go) and the copies are what it hands phase 3,
// as instances with an empty Prefix (their symbols carry it already). With
// phase1 false every pair is a candidate: the no-phase-1 reference, which
// the analyzer itself has no switch for.
func naiveEnum(phase1 bool) enumFunc {
	return func(r *run, ctx context.Context, traces []*trace.Trace) ([]*chain, Stats, error) {
		return r.enumerateNaive(ctx, traces, phase1)
	}
}

func (r *run) enumerateNaive(ctx context.Context, traces []*trace.Trace, phase1 bool) ([]*chain, Stats, error) {
	var st Stats
	// Pre-rename each trace once per role, number each renamed
	// transaction's statements, and compute its tables by name once: phase
	// 1 probes every pair, so rebuilding the accessed/written maps per
	// probe is quadratic in corpus size.
	inst1 := make([]*trace.Trace, len(traces))
	inst2 := make([]*trace.Trace, len(traces))
	tables := map[*trace.Txn][2]map[string]bool{}
	first := map[*trace.Txn]int32{}
	for i, tr := range traces {
		inst1[i] = renameTrace(tr, "A1.")
		inst2[i] = renameTrace(tr, "A2.")
		for _, in := range []*trace.Trace{inst1[i], inst2[i]} {
			for _, txn := range in.Txns {
				first[txn] = int32(len(r.facts))
				if _, err := r.addFacts(txn); err != nil {
					return nil, st, err
				}
				acc, wr := txn.Tables()
				tables[txn] = [2]map[string]bool{acc, wr}
			}
		}
	}

	// The reference grouping: chains by their rendered key.
	byKey := map[string]*chain{}
	var chains []*chain
	add := func(cyc Cycle, _ chainID) {
		key := dedupKey(cyc)
		ch, ok := byKey[key]
		if !ok {
			ch = &chain{}
			byKey[key] = ch
			chains = append(chains, ch)
		}
		ch.cycles = append(ch.cycles, cyc)
	}

	for i := range traces {
		for j := i; j < len(traces); j++ {
			for _, t1 := range inst1[i].Txns {
				for _, t2 := range inst2[j].Txns {
					if err := ctx.Err(); err != nil {
						return chains, st, err
					}
					st.Pairs++
					if phase1 && !(writesWhatAccessed(tables[t1], tables[t2]) && writesWhatAccessed(tables[t2], tables[t1])) {
						continue
					}
					st.PairsAfterPhase1++
					// Instances are only allocated for pairs that survive the
					// filters: on large corpora phase 1 rejects the vast
					// majority of pairs.
					p1 := &instance{API: traces[i].API, Txn: t1, Trace: inst1[i], first: first[t1]}
					p2 := &instance{API: traces[j].API, Txn: t2, Trace: inst2[j], first: first[t2]}
					st.CoarseCycles += r.enumeratePair(p1, p2, add)
				}
			}
		}
	}
	return chains, st, nil
}

// writesWhatAccessed is one direction of phase 1 by table names: a
// transaction with tables {accessed, written} w writes a table a accesses.
func writesWhatAccessed(w, a [2]map[string]bool) bool {
	for t := range w[1] {
		if a[0][t] {
			return true
		}
	}
	return false
}

// conflicts is phase 1 over signatures of ids: the pair can form a
// transaction conflict cycle iff each transaction writes a table the other
// accesses.
func (s txnSig) conflicts(o txnSig) bool {
	return slices.ContainsFunc(s.wr, func(t int32) bool { return slices.Contains(o.acc, t) }) &&
		slices.ContainsFunc(o.wr, func(t int32) bool { return slices.Contains(s.acc, t) })
}

// randSchema is a pool of simple keyed tables for the random corpora.
func randSchema(tables int) *schema.Schema {
	s := schema.New()
	for i := 0; i < tables; i++ {
		s.AddTable(fmt.Sprintf("T%d", i)).
			Col("ID", schema.Int).
			Col("V", schema.Int).
			PrimaryKey("ID")
	}
	return s
}

// randTraces builds a seeded random corpus over the T* tables: each
// trace is one API with 1–2 transactions of 1–3 statements, each a
// point SELECT or a point UPDATE on a random table. Sparse by
// construction — most instance pairs do not conflict — which is
// exactly the regime the inverted index exists for.
func randTraces(rng *rand.Rand, traces, tables int) []*trace.Trace {
	out := make([]*trace.Trace, 0, traces)
	for n := 0; n < traces; n++ {
		tr := &trace.Trace{API: fmt.Sprintf("Rnd%03d", n)}
		txns := 1 + rng.Intn(2)
		seq := 0
		for id := 1; id <= txns; id++ {
			txn := &trace.Txn{ID: id, Committed: true}
			stmts := 1 + rng.Intn(3)
			for k := 0; k < stmts; k++ {
				tbl := fmt.Sprintf("T%d", rng.Intn(tables))
				key := smt.NewVar(fmt.Sprintf("k%d", seq), smt.SortInt)
				var st *trace.Stmt
				if rng.Intn(3) == 0 { // 1-in-3 statements write
					st = mkStmt(seq, fmt.Sprintf(`UPDATE %s SET V = ? WHERE ID = ?`, tbl),
						[]smt.Expr{smt.Int(int64(rng.Intn(5))), key}, nil)
				} else {
					st = mkStmt(seq, fmt.Sprintf(`SELECT * FROM %s t WHERE t.ID = ?`, tbl),
						[]smt.Expr{key},
						&trace.Result{Cols: []string{"t.ID", "t.V"}, Sym: [][]smt.Var{{
							{Name: fmt.Sprintf("res%d.row0.t.ID", seq), S: smt.SortInt},
							{Name: fmt.Sprintf("res%d.row0.t.V", seq), S: smt.SortInt},
						}}})
				}
				tr.Inputs = append(tr.Inputs, trace.Input{
					Name: key.Name, Sort: smt.SortInt, Concrete: smt.IntValue(int64(seq + 1)),
				})
				txn.Stmts = append(txn.Stmts, st)
				seq++
			}
			tr.Txns = append(tr.Txns, txn)
		}
		out = append(out, tr)
	}
	return out
}

// comparable strips the fields that legitimately differ between the
// naive and indexed paths: wall times, worker count, and the index's
// own probe counter (zero for the oracle by definition).
func comparable(s Stats) Stats {
	s = s.WithoutTimings()
	s.IndexProbes = 0
	return s
}

// enumOf is the seam the differential tests and benchmarks reach the
// oracle through: the enumeration to hand a.analyze.
func enumOf(naive bool) enumFunc {
	if naive {
		return naiveEnum(true)
	}
	return (*run).enumerateIndexed
}

// flattenEnumerate is phases 1–2 of a fresh run: flatten, then the
// indexed enumeration.
func (r *run) flattenEnumerate(ctx context.Context, traces []*trace.Trace) ([]*chain, Stats, error) {
	if err := r.flatten(traces); err != nil {
		return nil, Stats{}, err
	}
	return r.enumerateIndexed(ctx, traces)
}

// AnalyzeWithoutPhase1 is the analysis with phase 1 off: the naive pair
// loop hands phase 2 every cross-instance transaction pair. Exported for
// the funnel tests in package core_test, which (unlike this package) may
// import the apps.
func AnalyzeWithoutPhase1(ctx context.Context, scm *schema.Schema, traces []*trace.Trace, opts ...Option) (*Result, error) {
	return NewAnalyzer(scm, opts...).analyze(ctx, traces, naiveEnum(false))
}

// analyzeRecording is a.analyze over the chosen enumeration, also
// returning the chains that enumeration produced.
func analyzeRecording(ctx context.Context, scm *schema.Schema, traces []*trace.Trace, naive bool, opts ...Option) (*Result, []*chain, error) {
	a := NewAnalyzer(scm, opts...)
	var chains []*chain
	res, err := a.analyze(ctx, traces,
		func(r *run, ctx context.Context, traces []*trace.Trace) (_ []*chain, st Stats, err error) {
			chains, st, err = enumOf(naive)(r, ctx, traces)
			return chains, st, err
		})
	return res, chains, err
}

// chainSigs renders chains as their keys and, per chain, its cycles in
// order — by value, since the oracle analyses its own renamed copies (and
// says so with an empty Prefix, which is therefore left out).
func chainSigs(chains []*chain) []string {
	var out []string
	for _, ch := range chains {
		out = append(out, "chain "+dedupKey(ch.cycles[0]))
		for _, c := range ch.cycles {
			out = append(out, fmt.Sprintf("%s#%d:%d>%d %s#%d:%d>%d %s %s",
				c.T1.API, c.T1.Txn.ID, c.S1a.Seq, c.S1b.Seq,
				c.T2.API, c.T2.Txn.ID, c.S2a.Seq, c.S2b.Seq, c.Table1, c.Table2))
		}
	}
	return out
}

// deadlockSigs renders what a Result says of its deadlocks by value —
// key, APIs, count, fingerprint, formula, model and the rendered report —
// for comparing a run over the recorded traces with one over renamed
// copies, whose Cycle pointers necessarily differ.
func deadlockSigs(res *Result) []string {
	var out []string
	for _, d := range res.Deadlocks {
		formula, model := "", ""
		if d.Formula != nil {
			formula = d.Formula.String()
		}
		if d.Model != nil {
			model = fmt.Sprint(d.Model.Vars)
		}
		out = append(out, fmt.Sprintf("%s %v x%d %s\n%s\n%s\n%s",
			d.Key, d.APIs, d.Count, d.Fingerprint(), formula, model, d.Render()))
	}
	return out
}

// diffRun asserts that the indexed enumeration at the given worker
// counts reproduces the naive loop's chains (keys, and cycle order within
// each) and its report byte-for-byte under the same extra options. It
// returns the oracle's result.
func diffRun(t *testing.T, scm *schema.Schema, traces []*trace.Trace, workerCounts []int, extra ...Option) *Result {
	t.Helper()
	naive, naiveChains, err := analyzeRecording(context.Background(), scm, traces, true, append([]Option{WithParallelism(1)}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts {
		ix, ixChains, err := analyzeRecording(context.Background(), scm, traces, false, append([]Option{WithParallelism(workers)}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		if want, got := chainSigs(naiveChains), chainSigs(ixChains); !reflect.DeepEqual(want, got) {
			t.Fatalf("p%d: indexed chains differ from naive oracle (%d vs %d lines)", workers, len(got), len(want))
		}
		if !reflect.DeepEqual(deadlockSigs(naive), deadlockSigs(ix)) {
			t.Fatalf("p%d: indexed deadlocks differ from naive oracle (%d vs %d)",
				workers, len(ix.Deadlocks), len(naive.Deadlocks))
		}
		if comparable(naive.Stats) != comparable(ix.Stats) {
			t.Fatalf("p%d: funnel differs:\nnaive:   %+v\nindexed: %+v",
				workers, comparable(naive.Stats), comparable(ix.Stats))
		}
		if naive.Stats.IndexProbes != 0 {
			t.Fatalf("naive oracle walked the index: %+v", naive.Stats)
		}
	}
	return naive
}

// TestEnumDifferentialCurated runs the oracle comparison on the curated
// fine-mode workload — full SMT discharge, so the SAT-representative
// choice (which depends on within-chain cycle order) is covered — and
// holds every group's verdict, served by skeleton key, to a direct solve.
func TestEnumDifferentialCurated(t *testing.T) {
	diffRun(t, fig1Schema(), pipelineTraces(), []int{1, 4, 16})
	CheckMemoAgainstDirect(t, fig1Schema(), pipelineTraces())
}

// TestEnumDifferentialRandom sweeps seeded random corpora in coarse
// mode (phases 1–2 + dedup dominate; the solver adds nothing to the
// surface under test) across several worker counts.
func TestEnumDifferentialRandom(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tables := 4 + rng.Intn(5)
			traces := randTraces(rng, 20+rng.Intn(21), tables)
			diffRun(t, randSchema(tables), traces, []int{1, 4, 16}, WithCoarseOnly())
		})
	}
}

// TestEnumDifferentialRandomFine covers a smaller random corpus end to
// end, SMT discharge included, each group's verdict held to a direct
// solve.
func TestEnumDifferentialRandomFine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	traces := randTraces(rng, 10, 4)
	diffRun(t, randSchema(4), traces, []int{1, 4})
	CheckMemoAgainstDirect(t, randSchema(4), traces)
}

// TestEnumDifferentialAblations pins the oracle equivalence under the
// option that interacts with enumeration, concrete plans (phase 2's lock
// filter and the C-edge templates both key on each statement's recorded
// plan), also on a corpus where the plans make the filter drop cycles.
func TestEnumDifferentialAblations(t *testing.T) {
	t.Run("concrete-plans", func(t *testing.T) {
		scm := fig1Schema()
		diffRun(t, scm, withRecordedPlans(scm, pipelineTraces()), []int{1, 4}, WithConcretePlans())
	})
	t.Run("concrete-plans-filter", func(t *testing.T) {
		// An empty read binding both secondary indexes, then an update of
		// the second: the conservative model has the read range-lock
		// idx_b too, the recorded plan (idx_a) does not.
		scm := schema.New()
		scm.AddTable("T").
			Col("ID", schema.Int).Col("A", schema.Int).Col("B", schema.Int).
			PrimaryKey("ID").
			Index("idx_a", "A").
			Index("idx_b", "B")
		sel := mkStmt(0, `SELECT * FROM T t WHERE t.A = ? AND t.B = ?`,
			[]smt.Expr{smt.NewVar("a", smt.SortInt), smt.NewVar("b", smt.SortInt)},
			&trace.Result{Cols: []string{"t.ID", "t.A", "t.B"}, Empty: true})
		upd := mkStmt(1, `UPDATE T SET B = ? WHERE ID = ?`,
			[]smt.Expr{smt.NewVar("nb", smt.SortInt), smt.NewVar("id", smt.SortInt)}, nil)
		traces := withRecordedPlans(scm, []*trace.Trace{{
			API:  "Probe",
			Txns: []*trace.Txn{{ID: 1, Committed: true, Stmts: []*trace.Stmt{sel, upd}}},
		}})
		planned := diffRun(t, scm, traces, []int{1, 4}, WithConcretePlans()).Stats
		conservative := diffRun(t, scm, traces, []int{1, 4}).Stats
		if planned.LockFiltered <= conservative.LockFiltered {
			t.Fatalf("plans filtered %d cycles, the conservative model %d; want more with plans",
				planned.LockFiltered, conservative.LockFiltered)
		}
	})
}

// withRecordedPlans gives every statement the access paths minidb
// chooses for it over scm, as a collection records them.
func withRecordedPlans(scm *schema.Schema, traces []*trace.Trace) []*trace.Trace {
	db := minidb.Open(scm, minidb.Config{})
	for _, tr := range traces {
		for _, txn := range tr.Txns {
			for _, st := range txn.Stmts {
				st.Plan = db.Explain(st.Parsed)
			}
		}
	}
	return traces
}

// TestEnumIndexSurvivorsExact cross-checks the inverted index against
// the phase-1 predicate directly: for random signature sets, the
// candidate list must equal the brute-force conflicts() survivors, in
// ordinal order.
func TestEnumIndexSurvivorsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const tables = 5
	randSig := func() txnSig {
		var sig txnSig
		for _, tbl := range rng.Perm(tables) {
			switch rng.Intn(4) {
			case 0: // write (writes imply access)
				sig.acc, sig.wr = append(sig.acc, int32(tbl)), append(sig.wr, int32(tbl))
			case 1: // read only
				sig.acc = append(sig.acc, int32(tbl))
			}
		}
		return sig
	}
	for round := 0; round < 50; round++ {
		n := 1 + rng.Intn(40)
		sigs := make([]txnSig, n)
		for i := range sigs {
			sigs[i] = randSig()
		}
		ix := buildConflictIndex(sigs, tables)
		for li := range sigs {
			startOrd := rng.Intn(n)
			var want []int
			for r := startOrd; r < n; r++ {
				if sigs[li].conflicts(sigs[r]) {
					want = append(want, r)
				}
			}
			got, probes := ix.candidates(sigs[li], startOrd)
			if !reflect.DeepEqual(append([]int{}, got...), append([]int{}, want...)) {
				t.Fatalf("round %d left %d start %d: candidates = %v, want %v", round, li, startOrd, got, want)
			}
			if len(got) > 0 && probes == 0 {
				t.Fatalf("round %d: survivors without probes", round)
			}
		}
	}
}

// TestEnumScratchEpochWraparound forces the uint32 epoch through zero
// and checks stale marks cannot alias into a fresh query.
func TestEnumScratchEpochWraparound(t *testing.T) {
	sigs := []txnSig{
		{acc: []int32{0, 1}, wr: []int32{0, 1}},
		{acc: []int32{0}, wr: []int32{0}},
	}
	ix := buildConflictIndex(sigs, 2)
	ix.epoch = ^uint32(0) - 1 // two bumps away from wrapping to zero
	for i := 0; i < 4; i++ {
		got, _ := ix.candidates(sigs[0], 0)
		if want := []int{0, 1}; !reflect.DeepEqual(append([]int{}, got...), want) {
			t.Fatalf("bump %d (epoch %d): candidates = %v, want %v", i, ix.epoch, got, want)
		}
	}
}

// TestEnumIndexedCancellation mirrors TestAnalyzeContextCancellation on
// the indexed path: a pre-canceled context must surface
// context.Canceled from inside the pass without discharging anything.
func TestEnumIndexedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		res, err := NewAnalyzer(fig1Schema(), WithParallelism(workers)).
			AnalyzeContext(ctx, pipelineTraces())
		if err != context.Canceled {
			t.Fatalf("p%d: err = %v, want context.Canceled", workers, err)
		}
		if res == nil {
			t.Fatalf("p%d: canceled run must still return the partial result", workers)
		}
		if res.Stats.SolverCalls != 0 {
			t.Errorf("p%d: pre-canceled context still made %d solver calls", workers, res.Stats.SolverCalls)
		}
	}
}

// TestEnumIndexProbesDeterministic pins the new funnel counter: probes
// are nonzero on the indexed path and stable across runs and worker
// counts (the naive oracle's zero is asserted by diffRun).
func TestEnumIndexProbesDeterministic(t *testing.T) {
	traces := pipelineTraces()
	base, err := NewAnalyzer(fig1Schema(), WithParallelism(1)).
		AnalyzeContext(context.Background(), traces)
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.IndexProbes == 0 {
		t.Fatal("indexed run recorded no probes")
	}
	for _, workers := range []int{1, 4, 16} {
		res, err := NewAnalyzer(fig1Schema(), WithParallelism(workers)).
			AnalyzeContext(context.Background(), traces)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.IndexProbes != base.Stats.IndexProbes {
			t.Errorf("p%d: IndexProbes = %d, want %d", workers, res.Stats.IndexProbes, base.Stats.IndexProbes)
		}
	}
}

// flipCtx reports Canceled from its (after+1)-th Err call on. Both
// enumerations ask once per pair they are about to process — the pass per
// phase-1 survivor, the oracle per universe pair. (An enumeration that
// finishes first hands the context to the phase-3 workers, hence atomic.)
type flipCtx struct {
	context.Context
	left atomic.Int64
}

func (c *flipCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// enumCanceledAfter runs one enumeration under a flipCtx and returns what
// it had when it stopped (err is nil if it finished first).
func enumCanceledAfter(scm *schema.Schema, traces []*trace.Trace, naive bool, after int, opts ...Option) (*Result, []*chain, error) {
	ctx := &flipCtx{Context: context.Background()}
	ctx.left.Store(int64(after))
	return analyzeRecording(ctx, scm, traces, naive, opts...)
}

// TestEnumCancellationIsPrefix pins what a canceled enumeration returns:
// stopped after its k-th phase-1 survivor, the pass holds exactly the
// chains and funnel counters (Pairs included) the naive loop holds on
// reaching that survivor, and those chains are a cycle-for-cycle prefix of the full
// run's — at any phase-3 worker count, there being no pool to drain.
func TestEnumCancellationIsPrefix(t *testing.T) {
	t.Run("curated", func(t *testing.T) { cancellationIsPrefix(t, fig1Schema(), pipelineTraces()) })
	t.Run("random", func(t *testing.T) {
		cancellationIsPrefix(t, randSchema(4), randTraces(rand.New(rand.NewSource(3)), 10, 4))
	})
}

func cancellationIsPrefix(t *testing.T, scm *schema.Schema, traces []*trace.Trace) {
	opts := []Option{WithParallelism(4)}
	full, fullChains, err := analyzeRecording(context.Background(), scm, traces, false, opts...)
	if err != nil {
		t.Fatal(err)
	}
	survivors := full.Stats.PairsAfterPhase1
	if survivors < 4 {
		t.Fatalf("corpus has %d phase-1 survivors, too few to cut", survivors)
	}
	// naiveAt[k]: the oracle stopped just before its (k+1)-th survivor.
	type partial struct {
		stats  Stats
		chains []*chain
	}
	naiveAt := make([]partial, survivors+1)
	for m := 0; ; m++ {
		res, chains, err := enumCanceledAfter(scm, traces, true, m, opts...)
		if err == nil {
			break
		}
		naiveAt[res.Stats.PairsAfterPhase1] = partial{res.Stats, chains}
	}
	for _, k := range []int{0, 1, survivors / 2, survivors - 1} {
		res, chains, err := enumCanceledAfter(scm, traces, false, k, opts...)
		if err != context.Canceled {
			t.Fatalf("k=%d: err = %v, want context.Canceled", k, err)
		}
		if got := res.Stats.PairsAfterPhase1; got != k {
			t.Fatalf("k=%d: stopped after %d survivors", k, got)
		}
		wantStats, wantChains := naiveAt[k].stats, naiveAt[k].chains
		if comparable(res.Stats) != comparable(wantStats) {
			t.Errorf("k=%d: partial funnel differs:\nnaive:   %+v\nindexed: %+v",
				k, comparable(wantStats), comparable(res.Stats))
		}
		if want, got := chainSigs(wantChains), chainSigs(chains); !reflect.DeepEqual(want, got) {
			t.Errorf("k=%d: partial chains differ from the naive loop's at the same point (%d vs %d lines)",
				k, len(got), len(want))
		}
		if len(chains) > len(fullChains) {
			t.Fatalf("k=%d: %d chains, full run has %d", k, len(chains), len(fullChains))
		}
		for i, ch := range chains {
			part, whole := chainSigs([]*chain{ch}), chainSigs([]*chain{fullChains[i]})
			if len(part) > len(whole) || !reflect.DeepEqual(part, whole[:len(part)]) {
				t.Errorf("k=%d: chain %d is not a prefix of the full run's", k, i)
			}
		}
	}
}

// benchCorpus is a fixed 160-trace sparse corpus for the enumeration
// microbenchmarks: big enough that the quadratic pair loop dominates in
// coarse mode.
func benchCorpus() (*schema.Schema, []*trace.Trace) {
	rng := rand.New(rand.NewSource(17))
	const tables = 12
	return randSchema(tables), randTraces(rng, 160, tables)
}

func benchEnum(b *testing.B, naive bool) {
	scm, traces := benchCorpus()
	a := NewAnalyzer(scm, WithParallelism(1), WithCoarseOnly())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.analyze(context.Background(), traces, enumOf(naive)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnumNaive(b *testing.B) { benchEnum(b, true) }

func BenchmarkEnumIndexed(b *testing.B) { benchEnum(b, false) }

// EnumSettle runs what precedes phase 3's workers on a fresh one-worker
// run — flatten with its schema check, the indexed enumeration and settle
// — and returns the enumeration's funnel counters. Exported for the
// allocation ceiling and BenchmarkEnumerate1056 in package core_test,
// which (unlike this package) may import the apps.
func EnumSettle(tb testing.TB, scm *schema.Schema, traces []*trace.Trace) Stats {
	r := NewAnalyzer(scm, WithParallelism(1)).newRun()
	chains, st, err := r.flattenEnumerate(context.Background(), traces)
	if err != nil {
		tb.Fatal(err)
	}
	r.settle(chains)
	return st
}

// EnumAllocsPerPair measures EnumSettle: heap allocations and bytes per
// phase-1 survivor, the least of three runs each.
func EnumAllocsPerPair(t *testing.T, scm *schema.Schema, traces []*trace.Trace) (allocs, bytes float64) {
	t.Helper()
	allocs, bytes = -1, -1
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st := EnumSettle(t, scm, traces)
		runtime.ReadMemStats(&after)
		if st.PairsAfterPhase1 == 0 {
			t.Fatal("no pair survives phase 1")
		}
		n := float64(st.PairsAfterPhase1)
		allocs, bytes = least(allocs, float64(after.Mallocs-before.Mallocs)/n), least(bytes, float64(after.TotalAlloc-before.TotalAlloc)/n)
	}
	return allocs, bytes
}

// CheckEnumAgainstNaive holds the indexed enumeration to the naive oracle
// on a corpus: chain keys, the order of the cycles within each chain, the
// reports and the funnel counters, with phase 3 on one worker and on four.
// Exported for the corpus test in package core_test.
func CheckEnumAgainstNaive(t *testing.T, scm *schema.Schema, traces []*trace.Trace) {
	t.Helper()
	diffRun(t, scm, traces, []int{1, 4})
}
