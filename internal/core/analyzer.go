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
	// flatten's, dying with the run (a process-wide table of recorded
	// statements would keep every batch a daemon re-ingested reachable):
	// statement facts (settle completes them) and transactions by ordinal,
	// interned names, statement keys and templates, and the backing stores
	// of id and name lists (carve).
	facts   []stmtFacts
	insts   []enumInst
	sigs    []txnSig
	start   []int
	names   []string
	nameIDs map[string]int32
	keys    map[stmtKeyOf]int32
	parsed  map[sqlast.Stmt]*tmplFacts
	ids     []int32
	strs    []string
	sorts   []byte  // addFacts' scratch
	cedges  []cedge // enumeratePair's scratch
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
		nameIDs: map[string]int32{}, keys: map[stmtKeyOf]int32{}, parsed: map[sqlast.Stmt]*tmplFacts{},
		conds: map[*trace.Trace][]pathCond{}, workers: workers, forms: map[string]int32{}, syms: map[string]int32{}, tmpls: map[[3]int32]*edgeTmpl{}}
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
	api    int32        // API's id
	first  int32        // the ordinal of Txn's first statement
}

// Cycle is one SC-graph deadlock cycle across two transaction instances:
// T1 holds the lock acquired at S1a and waits at S1b; T2 holds at S2a and
// waits at S2b; C-edges connect (S1b, S2a) and (S2b, S1a). The statements
// are the recorded ones: T1's play "A1.", T2's "A2.", same object or not.
type Cycle struct {
	T1, T2             *instance
	S1a, S1b, S2a, S2b *trace.Stmt
	Table1, Table2     string   // conflict tables of the two C-edges
	at                 [4]int32 // the statements' ordinals, S1a to S2b
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
// schema cannot describe (lockmodel.CheckStmt) is an error and no result.
func (a *Analyzer) AnalyzeContext(ctx context.Context, traces []*trace.Trace) (*Result, error) {
	return a.analyze(ctx, traces, (*run).enumerateIndexed)
}

// enumFunc runs phases 1 and 2 after flatten: transaction-pair filtering
// and coarse-cycle enumeration. Candidate cycles sharing a
// dedup key are collected into one chain, preserving global enumeration
// order both across chains and within each chain; the Stats returned
// hold what the enumeration counted.
type enumFunc func(r *run, ctx context.Context, traces []*trace.Trace) ([]*chain, Stats, error)

// analyze is AnalyzeContext over a given enumeration: enumerateIndexed in
// production; the differential tests also pass their naive pair loop.
func (a *Analyzer) analyze(ctx context.Context, traces []*trace.Trace, enumerate enumFunc) (*Result, error) {
	r := a.newRun()
	res := &Result{}
	o := a.opts.Observer
	var spAnalyze, spEnum obs.Span
	if o != nil {
		spAnalyze = o.StartSpan(0, "analyze", obs.Int("traces", len(traces)))
		o.Progress.SetPhase("enumerate")
		spEnum = o.StartSpan(0, "enumerate")
	}

	// Stages 1–2 (serial), after flatten has indexed the statements and
	// checked them against the schema: pair filtering and coarse-cycle
	// enumeration, grouped into dedup-key chains in first-occurrence order.
	start := time.Now()
	if err := r.flatten(traces); err != nil {
		spEnum.End()
		finishObs(o, spAnalyze, res, err)
		return nil, err
	}
	res.Stats.Traces = len(traces)
	res.Stats.Parallelism = r.workers
	r.m.publish(&Stats{Traces: len(traces)})
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

// stmtFacts is what the phases re-read of one recorded statement: flatten's
// id of its key (stmtKey) and its template's facts (tables and write
// table); for a statement a cycle names, settle's id of its skeleton key
// (-1 before) and its skeleton's names with their symbol ids.
type stmtFacts struct {
	key    int32
	skelID int32
	tmpl   *tmplFacts
	names  []string
	syms   []int32
}

// identity is the one builder of a cycle's identity: per side, who it is,
// the statement template and trigger site it holds at and the one it
// waits at, and the table order it acquires across the two C-edges — the
// two strings sorted, so equivalent cycles (including the mirror pairing)
// agree (chainID is it in ids). key renders one statement (stmtKey);
// dedupKey joins the two strings, Deadlock.Fingerprint hashes them.
func (c Cycle) identity(key func(*trace.Stmt) string) (string, string) {
	k1 := c.T1.API + "|" + key(c.S1a) + ">" + key(c.S1b) + "|" + c.Table2 + ">" + c.Table1
	k2 := c.T2.API + "|" + key(c.S2a) + ">" + key(c.S2b) + "|" + c.Table1 + ">" + c.Table2
	if k2 < k1 {
		k1, k2 = k2, k1
	}
	return k1, k2
}

// dedupKey is the key of the reported deadlock equivalent cycles fold into.
func dedupKey(c Cycle) string {
	k1, k2 := c.identity(stmtKey)
	return k1 + "||" + k2
}

// stmtKey is a statement's template and trigger site; the site's file is
// module-relative (concolic.symbolize), so the key does not depend on
// where the binary was built.
func stmtKey(s *trace.Stmt) string {
	top := s.Trigger.Top()
	return s.SQL + "@" + top.File + ":" + strconv.Itoa(top.Line)
}
