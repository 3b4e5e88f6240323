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
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"weseer/internal/lockmodel"
	"weseer/internal/obs"
	"weseer/internal/smt"
	"weseer/internal/solver"
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
	// stats is what this chain counted; solver time and the CDCL(T)
	// counters are those of the solver calls it owned (memo hits charge
	// nothing — the owning call counted).
	stats Stats
	err   error
}

// discharge runs phase 3 over the chains on r.workers goroutines and
// merges the outcomes in chain order. In coarse-only mode every chain
// becomes a report without any solving.
func (r *run) discharge(ctx context.Context, chains []*chain, res *Result) error {
	o := r.opts.Observer
	if r.opts.CoarseOnly {
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

	if o != nil {
		o.Progress.SetPhase("fine")
		o.Progress.SetChains(int64(len(chains)))
		spFine := o.StartSpan(0, "discharge",
			obs.Int("chains", len(chains)), obs.Int("workers", min(r.workers, len(chains))))
		defer spFine.End()
	}
	// The gauges are shared by the analyses on one observer, so each run
	// only adds: total minus done is the chains in flight.
	r.m.chainsTotal.Add(int64(len(chains)))
	var ran atomic.Int64
	outcomes := make([]chainOutcome, len(chains))
	forEachIndex(ctx, len(chains), r.workers, func(i, tid int) {
		outcomes[i] = r.evalChain(ctx, chains[i], tid)
		// The live view: what the stage-4 merge below adds to res.Stats is
		// added to the counters here, as each chain finishes.
		if o != nil {
			o.Progress.ChainDone()
		}
		r.m.chainsDone.Add(1)
		ran.Add(1)
		r.m.publish(&outcomes[i].stats)
	})
	// Chains a cancellation kept from starting are no longer in flight.
	r.m.chainsTotal.Add(ran.Load() - int64(len(chains)))

	// Stage 4: merge per chain index — chain order is the serial
	// first-occurrence order, so aggregation is deterministic.
	var err error
	for i := range outcomes {
		out := &outcomes[i]
		if out.err != nil && err == nil {
			err = out.err
		}
		res.Stats.add(&out.stats)
		if out.deadlock != nil {
			res.Deadlocks = append(res.Deadlocks, out.deadlock)
		}
	}
	// The memo's first level is counted by the table, not by the chains:
	// its size does not depend on which worker met a shape first.
	canon := Stats{CanonCalls: len(r.memo.shapes), CanonTime: time.Duration(r.memo.canonNanos.Load())} // workers are done
	res.Stats.add(&canon)
	r.m.publish(&canon)
	r.m.edgeTemplates.Add(int64(r.locks.EdgeTemplates()))
	if err == nil {
		err = ctx.Err()
	}
	return err
}

// evalChain discharges one chain on logical worker tid: candidates are
// checked in enumeration order until one is confirmed SAT; later
// duplicates fold into Count.
func (r *run) evalChain(ctx context.Context, ch *chain, tid int) chainOutcome {
	var out chainOutcome
	if o := r.opts.Observer; o != nil {
		sp := o.StartSpan(tid, "chain", obs.Int("cycles", len(ch.cycles)))
		defer func() {
			sp.End(obs.Bool("deadlock", out.deadlock != nil),
				obs.Int("groups_solved", out.stats.GroupsSolved),
				obs.Int("memo_hits", out.stats.MemoHits))
		}()
	}
	for idx, cyc := range ch.cycles {
		if err := ctx.Err(); err != nil {
			out.err = err
			return out
		}
		d := r.fineCheckOne(ctx, cyc, ch.key, tid, &out)
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
// filter, then (memoized) SMT solving of
// conflict + path conditions. It returns a Deadlock when the cycle is
// confirmed SAT.
func (r *run) fineCheckOne(ctx context.Context, cyc Cycle, key string, tid int, out *chainOutcome) *Deadlock {
	// Quick filter, exact: a C-edge without a modeled lock collision has a
	// false conflict condition.
	if !r.locks.PotentialConflict(cyc.S1b, cyc.S2a) ||
		!r.locks.PotentialConflict(cyc.S2b, cyc.S1a) {
		out.stats.LockFiltered++
		return nil
	}

	formula := r.cycleFormula(cyc)
	out.stats.GroupsSolved++

	sres, hit := r.memo.solve(ctx, formula, tid, &out.stats)
	if hit {
		out.stats.MemoHits++
	}
	if err := ctx.Err(); err != nil {
		// A canceled solve reports UNKNOWN; don't let it skew the funnel.
		out.stats.GroupsSolved--
		out.err = err
		return nil
	}

	switch sres.Status {
	case solver.SAT:
		out.stats.SolverSAT++
		return &Deadlock{
			Key:     key,
			APIs:    [2]string{cyc.T1.API, cyc.T2.API},
			Cycle:   cyc,
			Formula: formula,
			Model:   sres.Model,
			Count:   1,
		}
	case solver.UNSAT:
		out.stats.SolverUNSAT++
	default:
		// Timeouts are treated as "no deadlock reported" (Sec. III-B).
		out.stats.SolverUnknown++
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
// a cone-of-influence reduction that keeps solver formulas small. The two
// sides share no symbol, so the joint cone is the per-side ones, T1's first.
func (r *run) cycleFormula(cyc Cycle) smt.Expr {
	e := r.edges(cyc)
	out := []smt.Expr{e[0].Cond, e[1].Cond}
	out = r.cone(out, cyc.T1, 0, max(cyc.S1a.Seq, cyc.S1b.Seq), e[:]...)
	out = r.cone(out, cyc.T2, 1, max(cyc.S2a.Seq, cyc.S2b.Seq), e[:]...)
	return smt.And(out...)
}

// edges returns the cycle's C-edges, (S1b, S2a) and (S2b, S1a).
func (r *run) edges(cyc Cycle) [2]*lockmodel.Edge {
	r.m.edgeInstances.Add(2)
	return [2]*lockmodel.Edge{
		r.locks.EdgeCond(cyc.S1b, cyc.S2a, cyc.T1.Prefix, cyc.T2.Prefix, "r1."),
		r.locks.EdgeCond(cyc.S2b, cyc.S1a, cyc.T2.Prefix, cyc.T1.Prefix, "r2."),
	}
}

// CycleFormulas returns the formula phase 3 builds for every coarse
// cycle of the traces, in enumeration order — the memo table's input,
// exposed for canonicalization tests and for dumping a run's queries.
func (a *Analyzer) CycleFormulas(ctx context.Context, traces []*trace.Trace) ([]smt.Expr, error) {
	if err := checkTraces(a.scm, traces); err != nil {
		return nil, err
	}
	r := a.newRun()
	chains, _, err := r.enumerateIndexed(ctx, traces)
	var out []smt.Expr
	for _, ch := range chains {
		for _, cyc := range ch.cycles {
			out = append(out, r.cycleFormula(cyc))
		}
	}
	return out, err
}

// pathCond is one recorded path condition with its variable names (as
// recorded, un-prefixed) and, per role, its copy in that role's symbol
// space, made on the first cone it falls in.
type pathCond struct {
	cond    smt.Expr
	vars    []string
	after   int // PathCond.AfterStmt
	renamed [2]atomic.Pointer[smt.Expr]
}

// pathConds returns the recorded trace's path conditions with their
// variable sets. Workers may race to build the same trace's slice; the
// builds are identical, so either is kept.
func (r *run) pathConds(tr *trace.Trace) []pathCond {
	v, ok := r.pcMemo.Load(tr)
	if !ok {
		conds := make([]pathCond, len(tr.PathConds))
		for i, pc := range tr.PathConds {
			conds[i].cond, conds[i].vars, conds[i].after = pc.Cond, smt.VarNames(pc.Cond), pc.AfterStmt
		}
		v, _ = r.pcMemo.LoadOrStore(tr, conds)
	}
	return v.([]pathCond)
}

// cone appends to out, in recorded order and in the instance's symbol
// space, those of its path conditions recorded before statement seq that
// are transitively connected to the edges' variables; the analysis selects
// path conditions by statement here and nowhere else. The fixpoint runs on
// the recorded names — an edge variable of this side is its prefix plus
// one — and only the conditions inside the cone are renamed, once per
// (condition, role).
func (r *run) cone(out []smt.Expr, in *instance, role, seq int, edges ...*lockmodel.Edge) []smt.Expr {
	conds := r.pathConds(in.Trace)
	seed := map[string]struct{}{}
	for _, e := range edges {
		for _, v := range e.Vars {
			if name, ok := strings.CutPrefix(v, in.Prefix); ok {
				seed[name] = struct{}{}
			}
		}
	}
	inCone := make([]bool, len(conds))
	for changed := true; changed; {
		changed = false
		for i := range conds {
			c := &conds[i]
			if inCone[i] || c.after > seq {
				continue
			}
			if !slices.ContainsFunc(c.vars, func(v string) bool { _, ok := seed[v]; return ok }) {
				continue
			}
			inCone[i], changed = true, true
			for _, v := range c.vars {
				seed[v] = struct{}{}
			}
		}
	}
	for i := range conds {
		if !inCone[i] {
			continue
		}
		e := conds[i].renamed[role].Load()
		if e == nil {
			x := smt.Rename(conds[i].cond, func(s string) string { return in.Prefix + s })
			e = &x
			conds[i].renamed[role].Store(e)
		}
		out = append(out, *e)
	}
	return out
}
