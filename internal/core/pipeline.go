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
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"weseer/internal/lockmodel"
	"weseer/internal/obs"
	"weseer/internal/smt"
	"weseer/internal/solver"
	"weseer/internal/trace"
)

// chain is the ordered list of coarse cycles sharing one chainID.
type chain struct {
	cycles []Cycle
	first  [1]Cycle // cycles' first backing array
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
				Key:   dedupKey(cyc),
				APIs:  [2]string{cyc.T1.API, cyc.T2.API},
				Cycle: cyc,
				Count: len(ch.cycles),
			})
		}
		return ctx.Err()
	}

	r.settle(chains)
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
	// Per chain its report; per worker its chain in hand and their counts.
	reports := make([]*Deadlock, len(chains))
	held, sums := make([]chainOutcome, r.workers+1), make([]Stats, r.workers+1)
	forEachIndex(ctx, len(chains), r.workers, func(i, tid int) {
		out := &held[tid]
		*out = r.evalChain(ctx, chains[i], tid)
		reports[i] = out.deadlock
		sums[tid].add(&out.stats)
		// The live view: what the stage-4 merge below adds to res.Stats is
		// added to the counters here, as each chain finishes.
		if o != nil {
			o.Progress.ChainDone()
		}
		r.m.chainsDone.Add(1)
		ran.Add(1)
		r.m.publish(&out.stats)
	})
	// Chains a cancellation kept from starting are no longer in flight.
	r.m.chainsTotal.Add(ran.Load() - int64(len(chains)))

	// Stage 4: the reports in chain order — the serial first-occurrence
	// order, so the report is deterministic. A chain fails only with ctx.
	for _, d := range reports {
		if d != nil {
			res.Deadlocks = append(res.Deadlocks, d)
		}
	}
	for i := range sums {
		res.Stats.add(&sums[i])
	}
	// The memo's first level is counted by the table, not by the chains:
	// its size does not depend on which worker met a shape first.
	canon := Stats{CanonCalls: len(r.memo.skels), CanonTime: time.Duration(r.memo.canonNanos.Load())} // workers are done
	res.Stats.add(&canon)
	r.m.publish(&canon)
	r.m.edgeTemplates.Add(int64(len(r.tmpls)))
	return ctx.Err()
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
		d := r.fineCheckOne(ctx, cyc, tid, &out)
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

// fineCheckOne is phase 3 for one coarse cycle: the lock filter, its C-edge
// templates' Collide bits, then the memo by skeleton key, which builds the
// SMT formula of conflict + path conditions only to solve it or to translate
// a model into it. It returns a Deadlock when the cycle is confirmed SAT.
func (r *run) fineCheckOne(ctx context.Context, cyc Cycle, tid int, out *chainOutcome) *Deadlock {
	sc := &r.memo.scratch[tid]
	t := r.templates(cyc, &sc.sh)
	// The filter is exact: a C-edge without a modeled lock collision has a
	// false conflict condition.
	if !t[0].Collide || !t[1].Collide {
		out.stats.LockFiltered++
		return nil
	}

	out.stats.GroupsSolved++
	sres, formula, hit := r.memo.solve(ctx, r.skeletonKey(cyc, t, sc),
		func() smt.Expr { return r.cycleFormula(cyc, t, sc) }, tid, &out.stats)
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
			Key:     dedupKey(cyc),
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
// (Sec. V-B, fine-grained phase; the worked example is Fig. 9): those of
// the cone skeletonKey left in sc, T1's first. t is the cycle's templates.
func (r *run) cycleFormula(cyc Cycle, t [2]*edgeTmpl, sc *scratch) smt.Expr {
	e := r.edges(cyc, t)
	out := []smt.Expr{e[0], e[1]}
	for role, in := range [2]*instance{cyc.T1, cyc.T2} {
		for _, i := range sc.in[role] {
			c := &sc.conds[role][i]
			p := c.renamed[role].Load()
			if p == nil {
				x := smt.Rename(c.cond, func(s string) string { return in.Prefix + s })
				p = &x
				c.renamed[role].Store(p)
			}
			out = append(out, *p)
		}
	}
	return smt.And(out...)
}

// edges returns the conditions of the cycle's C-edges, (S1b, S2a) and
// (S2b, S1a), as instances of its templates t.
func (r *run) edges(cyc Cycle, t [2]*edgeTmpl) [2]smt.Expr {
	r.m.edgeInstances.Add(2)
	return [2]smt.Expr{
		lockmodel.EdgeCond(t[0].Edge, r.facts[cyc.at[1]].names, r.facts[cyc.at[2]].names, cyc.T1.Prefix, cyc.T2.Prefix),
		lockmodel.EdgeCond(t[1].Edge, r.facts[cyc.at[3]].names, r.facts[cyc.at[0]].names, cyc.T2.Prefix, cyc.T1.Prefix),
	}
}

// CycleFormulas returns the formula phase 3 builds for every coarse
// cycle of the traces, in enumeration order — the memo's test oracle,
// exposed for canonicalization tests and for dumping a run's queries.
func (a *Analyzer) CycleFormulas(ctx context.Context, traces []*trace.Trace) ([]smt.Expr, error) {
	r := a.newRun()
	if err := r.flatten(traces); err != nil {
		return nil, err
	}
	chains, _, err := r.enumerateIndexed(ctx, traces)
	r.settle(chains)
	var out []smt.Expr
	sc := &r.memo.scratch[0]
	for _, ch := range chains {
		for _, cyc := range ch.cycles {
			t := r.templates(cyc, &sc.sh)
			r.skeletonKey(cyc, t, sc)
			out = append(out, r.cycleFormula(cyc, t, sc))
		}
	}
	return out, err
}

// edgeTmpl is a C-edge template: lockmodel's, with its Collide bit, and
// as skeletonKey reads it: its condition's form, its symbols and its
// variable placeholders, which seed the cone (lockmodel.Placeholder).
type edgeTmpl struct {
	*lockmodel.Edge
	form        int32
	syms, seeds []int32
}

// pathCond is a recorded path condition: its variables' symbol ids, the
// trace's conditions sharing one, and from its first cone its form and
// symbols (run.alpha) and per role its copy in that role's symbol space.
type pathCond struct {
	cond    smt.Expr
	vars    []int32
	adj     []int32
	after   int // PathCond.AfterStmt
	once    sync.Once
	form    int32
	syms    []int32
	renamed [2]atomic.Pointer[smt.Expr]
}

// settle, once per run between enumeration and the workers, gives each
// statement the chains' cycles name its skeleton key's id and its names'
// symbol ids, each key its lock model — the one renamed copy of a
// statement settle makes — and each trace they name its path conditions.
func (r *run) settle(chains []*chain) {
	ids := map[string]int32{}
	var key []byte
	for _, ch := range chains {
		for _, cyc := range ch.cycles {
			for k, st := range [4]*trace.Stmt{cyc.S1a, cyc.S1b, cyc.S2a, cyc.S2b} {
				if f := &r.facts[cyc.at[k]]; f.skelID < 0 {
					names, syms := len(r.strs), len(r.ids)
					key, r.strs = lockmodel.SkeletonKey(key[:0], r.strs, st)
					r.ids = r.symbols(r.ids, r.strs[names:])
					f.names, f.syms = r.strs[names:len(r.strs):len(r.strs)], r.carve(syms)
					id, ok := ids[string(key)]
					if !ok {
						id = int32(len(ids))
						ids[string(key)] = id
						r.models = append(r.models, lockmodel.ModelOf(lockmodel.SkeletonOf(st), r.scm, r.opts.UseConcretePlans))
					}
					f.skelID = id
				}
			}
			for _, tr := range [2]*trace.Trace{cyc.T1.Trace, cyc.T2.Trace} {
				if _, ok := r.conds[tr]; !ok {
					r.conds[tr] = r.pathConds(tr)
				}
			}
		}
	}
}

// pathConds returns the recorded trace's path conditions.
func (r *run) pathConds(tr *trace.Trace) []pathCond {
	conds := make([]pathCond, len(tr.PathConds))
	var occ []smt.Var
	r.mu.Lock()
	for i, pc := range tr.PathConds {
		c, vars := &conds[i], len(r.ids)
		occ = smt.Vars(occ[:0], pc.Cond)
		for _, v := range occ {
			r.addOnce(vars, r.symbol(v.Name))
		}
		c.cond, c.vars, c.after = pc.Cond, r.carve(vars), pc.AfterStmt
	}
	r.mu.Unlock()
	for i := range conds { // the conditions sharing a variable with i
		adj := len(r.ids)
		for j := range conds {
			if j != i && slices.ContainsFunc(conds[j].vars, func(v int32) bool { return slices.Contains(conds[i].vars, v) }) {
				r.ids = append(r.ids, int32(j))
			}
		}
		conds[i].adj = r.carve(adj)
	}
	return conds
}

// skeletonKey renders the group's memo key into sc.key, and its cone into
// sc, with no formula built: per formula part — two C-edge templates, then
// each side's in-cone path conditions — its alpha-normal form and its
// symbols' numbers, a name of side s numbered on its first occurrence from
// 1, a fixed name (unified-row or range variable: one part's own) 0. Equal
// keys, so, mean formulas equal up to renaming (TestSkeletonKeyRefinesShape).
func (r *run) skeletonKey(cyc Cycle, t [2]*edgeTmpl, sc *scratch) []byte {
	sc.begin()
	k := sc.key[:0]
	for j, xy := range [2][2]int32{{cyc.at[1], cyc.at[2]}, {cyc.at[3], cyc.at[0]}} {
		syms := [2][]int32{r.facts[xy[0]].syms, r.facts[xy[1]].syms}
		k = binary.AppendUvarint(k, uint64(t[j].form))
		for _, p := range t[j].syms {
			n := uint64(0)
			if p >= 0 {
				n = sc.number(int(p&1)^j, syms[p&1][p>>1])
			}
			k = binary.AppendUvarint(k, n)
		}
		for _, p := range t[j].seeds {
			sc.slot(int(p&1)^j, syms[p&1][p>>1]).seedAt = sc.epoch
		}
	}
	seqs := [2]int{max(cyc.S1a.Seq, cyc.S1b.Seq), max(cyc.S2a.Seq, cyc.S2b.Seq)}
	for side, in := range [2]*instance{cyc.T1, cyc.T2} {
		sc.conds[side] = r.conds[in.Trace]
		sc.cone(side, seqs[side])
		for _, i := range sc.in[side] {
			c := &sc.conds[side][i]
			c.once.Do(func() {
				var names []string
				c.form, names = r.alpha(c.cond, &sc.sh)
				c.syms = r.symbols(nil, names)
			})
			k = binary.AppendUvarint(k, uint64(c.form))
			for _, n := range c.syms {
				k = binary.AppendUvarint(k, sc.number(side, n))
			}
		}
	}
	sc.key = k
	return k
}

// templates returns the cycle's C-edge templates, (S1b, S2a) of role 0
// (rows "r1.") and (S2b, S1a) of role 1 ("r2."), each built once per run.
func (r *run) templates(cyc Cycle, sh *smt.Shape) (out [2]*edgeTmpl) {
	for j, xy := range [2][2]int32{{cyc.at[1], cyc.at[2]}, {cyc.at[3], cyc.at[0]}} {
		fx, fy := &r.facts[xy[0]], &r.facts[xy[1]]
		k := [3]int32{fx.skelID, fy.skelID, int32(j)}
		r.mu.Lock()
		t := r.tmpls[k]
		r.mu.Unlock()
		if t == nil {
			t = &edgeTmpl{Edge: lockmodel.EdgeTemplate(r.models[fx.skelID], r.models[fy.skelID], [2]string{"r1.", "r2."}[j])}
			var syms []string
			t.form, syms = r.alpha(t.Cond, sh)
			for _, n := range syms {
				t.syms = append(t.syms, int32(lockmodel.Placeholder(n)))
			}
			for _, n := range t.Vars {
				if p := lockmodel.Placeholder(n); p >= 0 {
					t.seeds = append(t.seeds, int32(p))
				}
			}
			r.mu.Lock()
			r.tmpls[k] = t // racing workers store equal templates
			r.mu.Unlock()
		}
		out[j] = t
	}
	return out
}

// symbols appends the run's ids of names to ids, interning new ones.
func (r *run) symbols(ids []int32, names []string) []int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range names {
		ids = append(ids, r.symbol(n))
	}
	return ids
}

// symbol returns the run's id of name, interning it; r.mu is held.
func (r *run) symbol(name string) int32 {
	id, ok := r.syms[name]
	if !ok {
		id = int32(len(r.syms))
		r.syms[name] = id
	}
	return id
}

// alpha interns e's alpha-normal form, its smt.Shape key, and returns it
// with e's symbols in the order Rename visits them: fixed by e's structure
// (an array's versions carry its root's ID), so alike for equal forms.
func (r *run) alpha(e smt.Expr, sh *smt.Shape) (int32, []string) {
	var names []string
	smt.Rename(e, func(n string) string {
		if !slices.Contains(names, n) {
			names = append(names, n)
		}
		return n
	})
	sh.Reset(e)
	r.mu.Lock()
	defer r.mu.Unlock()
	form, ok := r.forms[string(sh.Key())]
	if !ok {
		form = int32(len(r.forms))
		r.forms[string(sh.Key())] = form
	}
	return form, names
}
