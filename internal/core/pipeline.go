package core

// Stage 3 of the diagnosis pipeline: fine-grained discharge of the
// coarse cycles enumerated by stage 2, and the deterministic merge.
//
// Candidates sharing a dedup key form one chain, evaluated in order
// until a cycle is confirmed SAT (remaining duplicates fold into the
// report's Count, exactly as the serial analyzer folded them). Chains
// are independent — no candidate's outcome can influence another
// chain — so they are distributed over a bounded worker pool, while the
// per-chain order preserves the serial semantics. Outcomes are merged
// per chain index, so the assembled report is byte-identical to a
// single-worker run.

import (
	"context"
	"sync"
	"time"

	"weseer/internal/lockmodel"
	"weseer/internal/obs"
	"weseer/internal/smt"
	"weseer/internal/solver"
	"weseer/internal/staticlint"
	"weseer/internal/trace"
)

// chain is the ordered list of coarse cycles sharing one dedup key.
type chain struct {
	key    string
	cycles []Cycle
}

// chainOutcome is one chain's contribution to the report and stats.
type chainOutcome struct {
	deadlock *Deadlock

	lockFiltered   int
	prescreenSaved int
	groupsSolved   int
	solverCalls    int
	memoHits       int
	sat, unsat     int
	unknown        int
	solverTime     time.Duration
	canonTime      time.Duration
	// engine aggregates the CDCL(T) counters of the solver calls this
	// chain owned (memo hits charge nothing — the owning call counted).
	engine solver.Stats

	err error
}

// discharge runs phase 3 over the chains on `workers` goroutines and
// merges the outcomes in chain order. In coarse-only mode every chain
// becomes a report without any solving.
func (a *Analyzer) discharge(ctx context.Context, chains []*chain, workers int, res *Result) error {
	o := a.opts.Observer
	if a.opts.CoarseOnly {
		if o != nil {
			o.Progress.SetPhase("coarse-report")
		}
		for _, ch := range chains {
			cyc := ch.cycles[0]
			res.Deadlocks = append(res.Deadlocks, &Deadlock{
				Key:   ch.key,
				APIs:  [2]string{cyc.T1.API, cyc.T2.API},
				Cycle: cyc,
				Count: len(ch.cycles),
			})
		}
		return ctx.Err()
	}

	memo := newMemoTable()
	if workers > len(chains) {
		workers = len(chains)
	}
	var spFine obs.Span
	if o != nil {
		o.Progress.SetPhase("fine")
		o.Progress.SetChains(int64(len(chains)))
		o.P().ChainsTotal.Set(int64(len(chains)))
		o.P().ChainsDone.Set(0)
		spFine = o.StartSpan(0, "discharge",
			obs.Int("chains", len(chains)), obs.Int("workers", workers))
		defer func() { spFine.End() }()
	}
	outcomes := make([]chainOutcome, len(chains))
	if workers <= 1 {
		for i, ch := range chains {
			outcomes[i] = a.evalChain(ctx, ch, memo, 1)
			noteChainDone(o, &outcomes[i])
			if outcomes[i].err != nil {
				break
			}
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				for i := range jobs {
					outcomes[i] = a.evalChain(ctx, chains[i], memo, tid)
					noteChainDone(o, &outcomes[i])
				}
			}(w + 1)
		}
	feed:
		for i := range chains {
			select {
			case jobs <- i:
			case <-ctx.Done():
				break feed
			}
		}
		close(jobs)
		wg.Wait()
	}

	// Stage 4: merge per chain index — chain order is the serial
	// first-occurrence order, so aggregation is deterministic.
	var err error
	for i := range outcomes {
		o := &outcomes[i]
		if o.err != nil && err == nil {
			err = o.err
		}
		res.Stats.LockFiltered += o.lockFiltered
		res.Stats.PrescreenSaved += o.prescreenSaved
		res.Stats.GroupsSolved += o.groupsSolved
		res.Stats.SolverCalls += o.solverCalls
		res.Stats.MemoHits += o.memoHits
		res.Stats.SolverSAT += o.sat
		res.Stats.SolverUNSAT += o.unsat
		res.Stats.SolverUnknown += o.unknown
		res.Stats.SolverTime += o.solverTime
		res.Stats.CanonTime += o.canonTime
		res.Stats.Engine.Add(o.engine)
		if o.deadlock != nil {
			res.Deadlocks = append(res.Deadlocks, o.deadlock)
		}
	}
	res.Stats.CanonCalls = len(memo.shapes) // workers are done
	if o != nil {
		o.P().CanonCalls.Add(int64(res.Stats.CanonCalls))
		o.P().CanonMicros.Add(res.Stats.CanonTime.Microseconds())
	}
	if err == nil {
		err = ctx.Err()
	}
	return err
}

// noteChainDone publishes one discharged chain's outcome to the
// observer: progress and the funnel counters, field for field the same
// additions the stage-4 merge performs on res.Stats, so after a run
// /metrics and Result.Stats agree. No-op without an observer.
func noteChainDone(o *obs.Observer, out *chainOutcome) {
	if o == nil {
		return
	}
	o.Progress.ChainDone()
	m := o.P()
	m.ChainsDone.Add(1)
	m.LockFiltered.Add(int64(out.lockFiltered))
	m.PrescreenSaved.Add(int64(out.prescreenSaved))
	m.GroupsSolved.Add(int64(out.groupsSolved))
	m.SolverCalls.Add(int64(out.solverCalls))
	m.MemoHits.Add(int64(out.memoHits))
	m.SAT.Add(int64(out.sat))
	m.UNSAT.Add(int64(out.unsat))
	m.Unknown.Add(int64(out.unknown))
}

// evalChain discharges one chain on logical worker tid: candidates are
// checked in enumeration order until one is confirmed SAT; later
// duplicates fold into Count.
func (a *Analyzer) evalChain(ctx context.Context, ch *chain, memo *memoTable, tid int) chainOutcome {
	var out chainOutcome
	if o := a.opts.Observer; o != nil {
		sp := o.StartSpan(tid, "chain", obs.Int("cycles", len(ch.cycles)))
		defer func() {
			sp.End(obs.Bool("deadlock", out.deadlock != nil),
				obs.Int("groups_solved", out.groupsSolved),
				obs.Int("memo_hits", out.memoHits))
		}()
	}
	for idx, cyc := range ch.cycles {
		if err := ctx.Err(); err != nil {
			out.err = err
			return out
		}
		d := a.fineCheckOne(ctx, cyc, ch.key, memo, tid, &out)
		if out.err != nil {
			return out
		}
		if d != nil {
			d.Count = len(ch.cycles) - idx
			out.deadlock = d
			return out
		}
	}
	return out
}

// fineCheckOne is phase 3 for one coarse cycle: quick lock-collision
// filter, Phase-0 group refutation, then (memoized) SMT solving of
// conflict + path conditions. It returns a Deadlock when the cycle is
// confirmed SAT.
func (a *Analyzer) fineCheckOne(ctx context.Context, cyc Cycle, key string, memo *memoTable, tid int, out *chainOutcome) *Deadlock {
	// Quick filter: each C-edge needs a modeled lock collision.
	if !a.opts.SkipLockFilter {
		if !a.locks.PotentialConflict(cyc.S1b, cyc.S2a, a.opts.UseConcretePlans) ||
			!a.locks.PotentialConflict(cyc.S2b, cyc.S1a, a.opts.UseConcretePlans) {
			out.lockFiltered++
			return nil
		}
	}

	// Phase-0 group refutation: when every statement of the cycle has a
	// static shape and one C-edge joins provably disjoint rigid point
	// rows, the conflict condition is trivially UNSAT — skip the solver.
	if a.ps != nil {
		s1a, ok1 := a.ps.stmts[cyc.S1a]
		s1b, ok2 := a.ps.stmts[cyc.S1b]
		s2a, ok3 := a.ps.stmts[cyc.S2a]
		s2b, ok4 := a.ps.stmts[cyc.S2b]
		if ok1 && ok2 && ok3 && ok4 &&
			!staticlint.CyclePossible(s1a, s1b, s2a, s2b, a.scm) {
			out.prescreenSaved++
			return nil
		}
	}

	formula := a.cycleFormula(cyc)
	out.groupsSolved++

	lim := a.opts.Solver
	if o := a.opts.Observer; o != nil {
		lim.Obs = o
		lim.ObsTID = tid
	}
	sres, hit := memo.solve(ctx, formula, lim, out)
	if hit {
		out.memoHits++
	}
	if err := ctx.Err(); err != nil {
		// A canceled solve reports UNKNOWN; don't let it skew the funnel.
		out.groupsSolved--
		out.err = err
		return nil
	}

	switch sres.Status {
	case solver.SAT:
		out.sat++
		return &Deadlock{
			Key:     key,
			APIs:    [2]string{cyc.T1.API, cyc.T2.API},
			Cycle:   cyc,
			Formula: formula,
			Model:   sres.Model,
			Count:   1,
		}
	case solver.UNSAT:
		out.unsat++
	default:
		// Timeouts are treated as "no deadlock reported" (Sec. III-B).
		out.unknown++
	}
	return nil
}

// cycleFormula conjoins both C-edges' conflict conditions with the path
// conditions recorded before each transaction's last involved statement
// (Sec. V-B, fine-grained phase; the worked example is Fig. 9).
//
// Path conditions sharing no variables (transitively) with the conflict
// conditions are dropped: the concrete execution that produced the trace
// satisfies them by construction, so they cannot change satisfiability —
// a cone-of-influence reduction that keeps solver formulas small.
func (a *Analyzer) cycleFormula(cyc Cycle) smt.Expr {
	edge1 := a.edgeCondCached(cyc.S1b, cyc.S2a, "r1.")
	edge2 := a.edgeCondCached(cyc.S2b, cyc.S1a, "r2.")

	pcs := a.pathCondsBefore(nil, cyc.T1.Trace, maxSeq(cyc.S1a, cyc.S1b))
	pcs = a.pathCondsBefore(pcs, cyc.T2.Trace, maxSeq(cyc.S2a, cyc.S2b))
	seed := make(map[string]struct{}, len(edge1.vars)+len(edge2.vars))
	for _, e := range [2]*condVars{edge1, edge2} {
		for _, v := range e.vars {
			seed[v] = struct{}{}
		}
	}
	return smt.And(coneOfInfluence([]smt.Expr{edge1.cond, edge2.cond}, seed, pcs)...)
}

// CycleFormulas returns the formula phase 3 builds for every coarse
// cycle of the traces, in enumeration order — the memo table's input,
// exposed for canonicalization tests and for dumping a run's queries.
func (a *Analyzer) CycleFormulas(ctx context.Context, traces []*trace.Trace) ([]smt.Expr, error) {
	a.ps = nil
	a.edgeMemo, a.pcMemo, a.locks = &sync.Map{}, &sync.Map{}, lockmodel.NewTemplates(a.scm)
	chains, err := a.enumerateIndexed(ctx, traces, 1, &Result{})
	var out []smt.Expr
	for _, ch := range chains {
		for _, cyc := range ch.cycles {
			out = append(out, a.cycleFormula(cyc))
		}
	}
	return out, err
}

// condVars is a condition with the names of its variables, computed
// once where it is built — per edge, per renamed trace — so the cone of
// influence of each cycle sharing it walks no expression again.
type condVars struct {
	cond  smt.Expr
	vars  []string
	after int // path conditions only: PathCond.AfterStmt
}

func newCondVars(cond smt.Expr, after int) condVars {
	set := smt.VarSet(cond)
	vars := make([]string, 0, len(set))
	for v := range set {
		vars = append(vars, v)
	}
	return condVars{cond: cond, vars: vars, after: after}
}

// pathCondsBefore appends to dst the renamed trace's path conditions
// recorded before statement seq (what Trace.PathCondsBefore selects), in
// order, with their variable sets, which are computed once per trace.
// Workers may race to build the same trace's slice; the builds are
// identical, so either is kept.
func (a *Analyzer) pathCondsBefore(dst []*condVars, tr *trace.Trace, seq int) []*condVars {
	v, ok := a.pcMemo.Load(tr)
	if !ok {
		conds := make([]condVars, len(tr.PathConds))
		for i, pc := range tr.PathConds {
			conds[i] = newCondVars(pc.Cond, pc.AfterStmt)
		}
		v, _ = a.pcMemo.LoadOrStore(tr, conds)
	}
	conds := v.([]condVars)
	for i := range conds {
		if conds[i].after <= seq {
			dst = append(dst, &conds[i])
		}
	}
	return dst
}

// coneOfInfluence appends to out the conditions transitively connected to
// the seed variable set, in their given order.
func coneOfInfluence(out []smt.Expr, seed map[string]struct{}, conds []*condVars) []smt.Expr {
	in := make([]bool, len(conds))
	for changed := true; changed; {
		changed = false
		for i, c := range conds {
			if in[i] {
				continue
			}
			touch := false
			for _, v := range c.vars {
				if _, ok := seed[v]; ok {
					touch = true
					break
				}
			}
			if !touch {
				continue
			}
			in[i], changed = true, true
			for _, v := range c.vars {
				seed[v] = struct{}{}
			}
		}
	}
	for i, c := range conds {
		if in[i] {
			out = append(out, c.cond)
		}
	}
	return out
}

// edgeKey identifies one C-edge condition build: the ordered statement
// pair and the unified-row variable prefix. UseConcretePlans is fixed
// per Analyzer, so it is not part of the key.
type edgeKey struct {
	x, y      *trace.Stmt
	rowPrefix string
}

// edgeCondCached builds — or reuses — the conflict condition of one
// C-edge. Cycles overlap heavily: every cycle sharing a C-edge used to
// rebuild an identical condition expression from scratch. The cache
// builds each distinct edge once per Analyze call, together with its
// variable set. Fresh range variables are prefixed per edge ("rng.r1.",
// "rng.r2."), which keeps the built condition independent of whatever
// the cycle's other edge minted.
func (a *Analyzer) edgeCondCached(x, y *trace.Stmt, rowPrefix string) *condVars {
	k := edgeKey{x: x, y: y, rowPrefix: rowPrefix}
	if e, ok := a.edgeMemo.Load(k); ok {
		if o := a.opts.Observer; o != nil {
			o.P().EdgeCacheHits.Inc()
		}
		return e.(*condVars)
	}
	nm := lockmodel.NewNamer("rng." + rowPrefix)
	e := newCondVars(edgeCond(x, y, a.locks, rowPrefix, nm, a.opts.UseConcretePlans), 0)
	// Hit/build attribution is metrics-only and may race benignly between
	// workers building the same edge — it never reaches the report.
	if o := a.opts.Observer; o != nil {
		o.P().EdgeCacheBuilds.Inc()
	}
	// Concurrent workers may race to build the same edge; both builds are
	// structurally identical, so either value is fine to keep.
	actual, _ := a.edgeMemo.LoadOrStore(k, &e)
	return actual.(*condVars)
}

// edgeCond builds the conflict condition of one C-edge, trying both
// writer orientations and disjoining the satisfiable directions.
func edgeCond(x, y *trace.Stmt, locks *lockmodel.Templates, rowPrefix string, nm *lockmodel.Namer, usePlans bool) smt.Expr {
	var alts []smt.Expr
	for _, o := range [2][2]*trace.Stmt{{x, y}, {y, x}} {
		w, r := o[0], o[1]
		wt := w.Parsed.WriteTable()
		if wt == "" {
			continue
		}
		accessed := false
		for _, t := range r.Parsed.Tables() {
			if t == wt {
				accessed = true
				break
			}
		}
		if !accessed {
			continue
		}
		alts = append(alts, locks.ConflictCond(w, r, wt, rowPrefix, nm, usePlans))
	}
	return smt.Or(alts...)
}
