// Package core implements WeSEER's deadlock analyzer — the paper's
// primary contribution (Sec. V): the SC-graph over collected transaction
// traces, and the three-phase diagnosis that funnels candidate deadlocks
// through progressively more precise (and more expensive) filters:
//
//  1. Transaction-level: only transaction pairs whose table read/write
//     signatures can form a conflict cycle survive.
//  2. Coarse-grained: SC-graph deadlock cycles with table-level C-edges,
//     as STEPDAD/REDACT build them — the baseline that reports 18,384
//     cycles on the paper's workload.
//  3. Fine-grained: per-cycle conflict conditions from row/range-lock
//     modeling (Alg. 2/3), conjoined with the traces' path conditions and
//     discharged by the SMT solver; only SAT cycles are reported, with a
//     satisfying assignment of API inputs and database state.
//
// The diagnosis runs as an explicit staged pipeline: stages 1–2 are one
// serial pass that enumerates candidate cycles through an inverted
// table-conflict index, in the canonical (trace_i, trace_j, txn1, txn2)
// order, straight into dedup-key chains (enumerate.go); stage 3
// discharges the chains on the one worker pool, with solver-call
// memoization (pipeline.go, memo.go); stage 4 — the one ordered merge —
// folds per-chain outcomes in chain order. The report is deterministic —
// byte identical — at every parallelism setting.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"weseer/internal/lockmodel"
	"weseer/internal/obs"
	"weseer/internal/schema"
	"weseer/internal/smt"
	"weseer/internal/sqlast"
	"weseer/internal/trace"
)

// Analyzer runs deadlock diagnosis over collected traces. It holds
// configuration only — what an analysis builds lives in that call's run —
// so one Analyzer serves any number of concurrent AnalyzeContext calls.
type Analyzer struct {
	scm  *schema.Schema
	opts options
}

// run is the state of one AnalyzeContext (or CycleFormulas) call, shared
// by that call's workers and dropped when it returns.
type run struct {
	scm  *schema.Schema
	opts options
	// facts is addFacts' table, completed by settle and read-only after. It
	// lives here and dies with the run: a process-wide table keyed by
	// *trace.Stmt would keep every batch a daemon ever re-ingested reachable.
	facts map[*trace.Stmt]*stmtFacts
	// conds is settle's: each recorded trace's path conditions, for both roles.
	conds map[*trace.Trace][]pathCond
	// models is settle's: per skeleton id, its key's lock model.
	models []*lockmodel.Model
	// mu guards the interned alpha-normal forms of formula parts, symbol
	// names (run.symbols) and the C-edge templates by (skeleton, skeleton,
	// role).
	mu      sync.Mutex
	forms   map[string]int32
	syms    map[string]int32
	tmpls   map[[3]int32]*edgeTmpl
	memo    *memoTable
	workers int // phase-3 workers: WithParallelism, resolved
	// m is the observer's instruments, resolved once; inert without one.
	m *Metrics
}

func (a *Analyzer) newRun() *run {
	workers := a.opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	r := &run{scm: a.scm, opts: a.opts, memo: newMemoTable(workers), m: &Metrics{},
		facts: map[*trace.Stmt]*stmtFacts{}, conds: map[*trace.Trace][]pathCond{}, workers: workers, forms: map[string]int32{}, syms: map[string]int32{}, tmpls: map[[3]int32]*edgeTmpl{}}
	if o := a.opts.Observer; o != nil {
		r.m = RegisterMetrics(o.Metrics)
		r.memo.obs, r.memo.latency = o, r.m.solverLatency
	}
	return r
}

// instance is one transaction instance: a view of a recorded transaction
// in one role. Txn and Trace are the recorded objects, read in place and
// shared by both roles; Prefix ("A1." / "A2.") is the role's symbol space,
// applied only where a formula reads symbols (run.edges, run.cone).
type instance struct {
	API    string
	Prefix string
	Txn    *trace.Txn
	Trace  *trace.Trace // for path conditions and inputs
}

// Cycle is one SC-graph deadlock cycle across two transaction instances:
// T1 holds the lock acquired at S1a and waits at S1b; T2 holds at S2a and
// waits at S2b; C-edges connect (S1b, S2a) and (S2b, S1a). The statements
// are the recorded ones: T1's play "A1.", T2's "A2.", same object or not.
type Cycle struct {
	T1, T2             *instance
	S1a, S1b, S2a, S2b *trace.Stmt
	Table1, Table2     string // conflict tables of the two C-edges
}

// Deadlock is one confirmed (or, in coarse-only mode, potential)
// deadlock.
type Deadlock struct {
	// Key canonically identifies the deadlock across duplicate cycles.
	Key string
	// APIs names the two involved API traces.
	APIs [2]string
	// Cycle is a representative deadlock cycle, over the recorded traces.
	Cycle Cycle
	// Formula is the solved conjunction (fine phase only). Its names — and
	// Model's — are the only ones carrying the instance prefixes.
	Formula smt.Expr
	// Model is the satisfying assignment: API inputs and database state
	// that reproduce the deadlock.
	Model *smt.Model
	// Count is the number of coarse cycles folded into this report.
	Count int
}

// AnalyzeContext runs the three-phase diagnosis over the traces, reading
// them in place. Each trace contributes two instances ("A1.", "A2."), and
// every cross-instance transaction pair — including pairs drawn from two
// different APIs' traces — is examined, matching the paper's setup.
//
// Enumeration is serial; phase 3 runs on WithParallelism concurrent
// workers (default GOMAXPROCS), and the returned report does not depend on
// the worker count or scheduling. When ctx is canceled mid-run the partial
// result gathered so far is returned together with ctx.Err(). A trace the
// schema cannot describe (checkTraces) is an error and no result.
func (a *Analyzer) AnalyzeContext(ctx context.Context, traces []*trace.Trace) (*Result, error) {
	return a.analyze(ctx, traces, (*run).enumerateIndexed)
}

// enumFunc runs phases 1 and 2: transaction-pair filtering and
// coarse-cycle enumeration. Candidate cycles sharing a
// dedup key are collected into one chain, preserving global enumeration
// order both across chains and within each chain; the Stats returned
// hold what the enumeration counted.
type enumFunc func(r *run, ctx context.Context, traces []*trace.Trace) ([]*chain, Stats, error)

// analyze is AnalyzeContext over a given enumeration: enumerateIndexed in
// production; the differential tests also pass their naive pair loop.
func (a *Analyzer) analyze(ctx context.Context, traces []*trace.Trace, enumerate enumFunc) (*Result, error) {
	if err := checkTraces(a.scm, traces); err != nil {
		return nil, err
	}
	r := a.newRun()
	res := &Result{}
	res.Stats.Traces = len(traces)
	res.Stats.Parallelism = r.workers
	r.m.publish(&Stats{Traces: len(traces)})

	o := a.opts.Observer
	var spAnalyze, spEnum obs.Span
	if o != nil {
		spAnalyze = o.StartSpan(0, "analyze", obs.Int("traces", len(traces)))
		o.Progress.SetPhase("enumerate")
		spEnum = o.StartSpan(0, "enumerate")
	}

	// Stages 1–2 (serial): pair filtering and coarse-cycle enumeration,
	// grouped into dedup-key chains in first-occurrence order.
	start := time.Now()
	chains, enum, err := enumerate(r, ctx, traces)
	res.Stats.EnumTime = time.Since(start)
	res.Stats.add(&enum)
	r.m.publish(&enum)
	if o != nil {
		spEnum.End(obs.Int("chains", len(chains)),
			obs.Int("coarse_cycles", res.Stats.CoarseCycles),
			obs.Int("index_probes", res.Stats.IndexProbes))
	}
	if err != nil {
		finishObs(o, spAnalyze, res, err)
		return res, err
	}

	// Stage 3 (parallel) + stage 4 (deterministic merge).
	start = time.Now()
	err = r.discharge(ctx, chains, res)
	res.Stats.FineTime = time.Since(start)

	sort.SliceStable(res.Deadlocks, func(x, y int) bool {
		return res.Deadlocks[x].Key < res.Deadlocks[y].Key
	})
	res.Stats.Fingerprints = res.DistinctFingerprints()
	finishObs(o, spAnalyze, res, err)
	return res, err
}

// checkTraces checks every statement against the schema the lock model
// reads it with (lockmodel.CheckStmt), before phase 1: a malformed batch is
// an error naming the trace and the statement, not a panicking worker. The
// verdict depends on the template and its parameters' sorts alone, so each
// such pair is checked once.
func checkTraces(scm *schema.Schema, traces []*trace.Trace) error {
	passed := map[sqlast.Stmt]map[string]bool{}
	var sorts []byte
	for i, tr := range traces {
		for _, txn := range tr.Txns {
			for _, st := range txn.Stmts {
				sorts = sorts[:0]
				for _, p := range st.Params {
					switch {
					case p.Sym != nil:
						sorts = append(sorts, 'a'+byte(p.Sym.Sort()))
					case p.Concrete.Null:
						sorts = append(sorts, '-')
					default:
						sorts = append(sorts, 'A'+byte(p.Concrete.Kind))
					}
				}
				if passed[st.Parsed][string(sorts)] {
					continue
				}
				if err := lockmodel.CheckStmt(st, scm); err != nil {
					return fmt.Errorf("core: trace %d (%s), statement %d %q: %w", i, tr.API, st.Seq, st.SQL, err)
				}
				if passed[st.Parsed] == nil {
					passed[st.Parsed] = map[string]bool{}
				}
				passed[st.Parsed][string(sorts)] = true
			}
		}
	}
	return nil
}

// finishObs closes the run's root span and marks the progress phase.
// No-op without an observer.
func finishObs(o *obs.Observer, spAnalyze obs.Span, res *Result, err error) {
	if o == nil {
		return
	}
	phase := "done"
	if err != nil {
		phase = "aborted"
	}
	o.Progress.SetPhase(phase)
	spAnalyze.End(obs.Int("deadlocks", len(res.Deadlocks)),
		obs.Bool("aborted", err != nil))
}

// forEachIndex calls fn(i, tid) for every i in [0, n) on min(workers, n)
// goroutines, tid being the worker's id from 1; a single worker runs on
// the caller's goroutine. Indices are handed out in ascending order and
// no further once ctx is done; it returns when every call it made has.
func forEachIndex(ctx context.Context, n, workers int, fn func(i, tid int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(i, 1)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := range jobs {
				fn(i, tid)
			}
		}(w)
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
}

// txnSig is a transaction's cached table signature for the phase-1
// screen.
type txnSig struct {
	acc, wr map[string]bool
}

// stmtFacts is what the phases re-read of one recorded statement; skel,
// skelID, its key's id in the run, and syms, its names' symbol ids, are
// settle's, for a statement a cycle names.
type stmtFacts struct {
	tables []string
	write  string
	key    string // stmtKey
	skel   *lockmodel.Skeleton
	skelID int32
	syms   []int32
}

// addFacts computes the facts of every statement of a trace.
func (r *run) addFacts(tr *trace.Trace) {
	for _, txn := range tr.Txns {
		for _, st := range txn.Stmts {
			r.facts[st] = &stmtFacts{tables: st.Parsed.Tables(), write: st.Parsed.WriteTable(), key: stmtKey(st)}
		}
	}
}

// coarseConflictTable is the coarse-grained C-edge test: a common table
// at least one statement writes. It returns the table ("" if none).
func coarseConflictTable(s, t *stmtFacts) string {
	for _, ts := range s.tables {
		for _, tt := range t.tables {
			if ts == tt && (s.write == ts || t.write == ts) {
				return ts
			}
		}
	}
	return ""
}

// enumeratePair runs phase 2 for one transaction-instance pair: coarse
// C-edges, then deadlock cycles. A cycle needs T1 to hold a lock from an
// earlier statement while waiting at a later one (and symmetrically for
// T2): S1a < S1b and S2a < S2b in execution order, with C-edges
// (S1b, S2a) and (S2b, S1a). Cycles are passed to emit in enumeration
// order; the returned count is the number emitted.
func (r *run) enumeratePair(p1, p2 *instance, emit func(Cycle)) int {
	s1, s2 := p1.Txn.Stmts, p2.Txn.Stmts

	type cedge struct{ i, j int }
	edgeTable := map[cedge]string{}
	var edges []cedge
	for i := range s1 {
		fi := r.facts[s1[i]]
		for j := range s2 {
			if tab := coarseConflictTable(fi, r.facts[s2[j]]); tab != "" {
				edgeTable[cedge{i, j}] = tab
				edges = append(edges, cedge{i, j})
			}
		}
	}
	count := 0
	for _, e1 := range edges {
		for _, e2 := range edges {
			// e1 = (S1b, S2a), e2 = (S1a, S2b).
			i1b, i2a := e1.i, e1.j
			i1a, i2b := e2.i, e2.j
			if !(i1a < i1b && i2a < i2b) {
				continue
			}
			count++
			emit(Cycle{
				T1: p1, T2: p2,
				S1a: s1[i1a], S1b: s1[i1b],
				S2a: s2[i2a], S2b: s2[i2b],
				Table1: edgeTable[e1], Table2: edgeTable[cedge{i1a, i2b}],
			})
		}
	}
	return count
}

// identity is the one builder of a cycle's identity: per side, who it is,
// the statement template and trigger site it holds at and the one it
// waits at, and the table order it acquires across the two C-edges — the
// two strings sorted, so equivalent cycles (including the mirror pairing)
// agree. key renders one statement (stmtKey, or a run's table of them);
// dedupKey joins the two strings, Deadlock.Fingerprint hashes them.
func (c Cycle) identity(key func(*trace.Stmt) string) (string, string) {
	k1 := c.T1.API + "|" + key(c.S1a) + ">" + key(c.S1b) + "|" + c.Table2 + ">" + c.Table1
	k2 := c.T2.API + "|" + key(c.S2a) + ">" + key(c.S2b) + "|" + c.Table1 + ">" + c.Table2
	if k2 < k1 {
		k1, k2 = k2, k1
	}
	return k1, k2
}

// dedupKey folds equivalent cycles into one reported deadlock.
func (r *run) dedupKey(c Cycle) string {
	k1, k2 := c.identity(func(s *trace.Stmt) string { return r.facts[s].key })
	return k1 + "||" + k2
}

// stmtKey is a statement's template and trigger site; the site's file is
// module-relative (concolic.symbolize), so the key does not depend on
// where the binary was built.
func stmtKey(s *trace.Stmt) string {
	top := s.Trigger.Top()
	return s.SQL + "@" + top.File + ":" + strconv.Itoa(top.Line)
}
