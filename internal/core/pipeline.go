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
	// Per chain its report; per worker the sum of what its chains counted.
	reports := make([]*Deadlock, len(chains))
	sums, prev := make([]Stats, r.workers+1), make([]Stats, r.workers+1)
	forEachIndex(ctx, len(chains), r.workers, func(i, tid int) {
		sum := &sums[tid]
		prev[tid] = *sum
		reports[i] = r.evalChain(ctx, chains[i], tid, sum)
		// The live view: what the stage-4 merge below adds to res.Stats is
		// added to the counters here, as each chain finishes.
		if o != nil {
			o.Progress.ChainDone()
		}
		r.m.chainsDone.Add(1)
		ran.Add(1)
		r.m.publishSince(sum, &prev[tid])
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

// evalChain discharges one chain on logical worker tid, counting into st:
// candidates are checked in enumeration order until one is confirmed SAT;
// later duplicates fold into Count.
func (r *run) evalChain(ctx context.Context, ch *chain, tid int, st *Stats) (d *Deadlock) {
	if o := r.opts.Observer; o != nil {
		sp := o.StartSpan(tid, "chain", obs.Int("cycles", len(ch.cycles)))
		solved, hits := st.GroupsSolved, st.MemoHits
		defer func() {
			sp.End(obs.Bool("deadlock", d != nil),
				obs.Int("groups_solved", st.GroupsSolved-solved),
				obs.Int("memo_hits", st.MemoHits-hits))
		}()
	}
	for idx, cyc := range ch.cycles {
		if ctx.Err() != nil {
			return nil
		}
		if d := r.fineCheckOne(ctx, cyc, tid, st); d != nil {
			d.Count = len(ch.cycles) - idx
			return d
		}
	}
	return nil
}

// fineCheckOne is phase 3 for one coarse cycle, counted into st: the lock
// filter, its C-edge templates' Collide bits, then the memo by skeleton
// key, which builds the SMT formula of conflict + path conditions only to
// solve it or to translate a model into it. It returns a Deadlock when the
// cycle is confirmed SAT.
func (r *run) fineCheckOne(ctx context.Context, cyc Cycle, tid int, st *Stats) *Deadlock {
	sc := &r.memo.scratch[tid]
	t := r.templates(cyc, sc)
	// The filter is exact: a C-edge without a modeled lock collision has a
	// false conflict condition.
	if !t[0].Collide || !t[1].Collide {
		st.LockFiltered++
		return nil
	}

	st.GroupsSolved++
	sres, formula, hit := r.memo.solve(ctx, r.skeletonKey(cyc, t, sc),
		func() smt.Expr { return r.cycleFormula(cyc, t, sc) }, tid, st)
	if hit {
		st.MemoHits++
	}
	if ctx.Err() != nil {
		// A canceled solve reports UNKNOWN; don't let it skew the funnel.
		st.GroupsSolved--
		return nil
	}

	switch sres.Status {
	case solver.SAT:
		st.SolverSAT++
		return &Deadlock{
			Key:     dedupKey(cyc),
			APIs:    [2]string{cyc.T1.API, cyc.T2.API},
			Cycle:   cyc,
			Formula: formula,
			Model:   sres.Model,
			Count:   1,
		}
	case solver.UNSAT:
		st.SolverUNSAT++
	default:
		// Timeouts are treated as "no deadlock reported" (Sec. III-B).
		st.SolverUnknown++
	}
	return nil
}

// cycleFormula conjoins both C-edges' conflict conditions with the path
// conditions recorded before each transaction's last involved statement
// (Sec. V-B, fine-grained phase; the worked example is Fig. 9): those of
// the cone skeletonKey left in sc, T1's first. t is the cycle's templates.
func (r *run) cycleFormula(cyc Cycle, t [2]*edgeTmpl, sc *scratch) smt.Expr {
	e := r.edges(cyc, t)
	out := append(make([]smt.Expr, 0, 2+len(sc.in[0])+len(sc.in[1])), e[0], e[1])
	for role, in := range [2]*instance{cyc.T1, cyc.T2} {
		for _, i := range sc.in[role] {
			p := sc.conds[role][i].part.Load() // skeletonKey's
			x := p.renamed[role].Load()
			if x == nil {
				e := smt.Rename(in.Trace.PathConds[i].Cond, func(s string) string { return in.Prefix + s })
				x = &e
				p.renamed[role].Store(x)
			}
			out = append(out, *x)
		}
	}
	return smt.And(out...)
}

// edges returns the conditions of the cycle's C-edges, (S1b, S2a) and
// (S2b, S1a), as instances of its templates t.
func (r *run) edges(cyc Cycle, t [2]*edgeTmpl) [2]smt.Expr {
	r.m.edgeInstances.Add(2)
	return [2]smt.Expr{
		lockmodel.EdgeCond(t[0].Edge, r.stmtNames(cyc.at[1]), r.stmtNames(cyc.at[2]), cyc.T1.Prefix, cyc.T2.Prefix),
		lockmodel.EdgeCond(t[1].Edge, r.stmtNames(cyc.at[3]), r.stmtNames(cyc.at[0]), cyc.T2.Prefix, cyc.T1.Prefix),
	}
}

// stmtNames returns the skeleton names of the statement at ordinal o.
func (r *run) stmtNames(o int32) []string {
	n := r.facts[o].names
	return r.strs[n[0]:n[1]]
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
			t := r.templates(cyc, sc)
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

// pathCond is a recorded path condition as a cone reads it: its variables'
// symbol ids, the trace's conditions sharing one, the statement it was
// recorded after, and from the first cone that takes it in, its part.
type pathCond struct {
	ids   []int32 // vars, then adj
	nvars int32
	after int32 // PathCond.AfterStmt
	part  atomic.Pointer[condPart]
}

func (c *pathCond) vars() []int32 { return c.ids[:c.nvars] }
func (c *pathCond) adj() []int32  { return c.ids[c.nvars:] }

// condPart is what a path condition's first cone gives it: its form and
// symbols (run.alpha), and per role its copy in that role's symbol space.
type condPart struct {
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
					names := len(r.strs)
					key, r.strs = lockmodel.SkeletonKey(key[:0], r.strs, st)
					r.strIDs = r.symbols(r.strIDs, r.strs[names:])
					f.names = [2]int32{int32(names), int32(len(r.strs))}
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

// pathConds returns the recorded trace's path conditions, each
// condition's neighbours found through the trace's (variable, condition)
// pairs.
func (r *run) pathConds(tr *trace.Trace) []pathCond {
	conds := make([]pathCond, len(tr.PathConds))
	base, occ := len(r.ids), r.occ[:0]
	r.mu.Lock()
	for i, pc := range tr.PathConds { // the variables, from base
		vars := len(r.ids)
		r.vars = smt.Vars(r.vars[:0], pc.Cond)
		for _, v := range r.vars {
			r.addOnce(vars, r.symbol(v.Name))
		}
		for _, v := range r.ids[vars:] {
			occ = append(occ, uint64(v)<<32|uint64(i))
		}
		conds[i].nvars, conds[i].after = int32(len(r.ids)-vars), int32(pc.AfterStmt)
	}
	r.mu.Unlock()
	slices.Sort(occ)
	from := base
	for i := range conds { // a condition's variables, then those sharing one
		c := &conds[i]
		vars, list := r.ids[from:from+int(c.nvars)], len(r.ids)
		r.ids, from = append(r.ids, vars...), from+int(c.nvars)
		for _, v := range vars {
			at, _ := slices.BinarySearch(occ, uint64(v)<<32)
			for ; at < len(occ) && int32(occ[at]>>32) == v; at++ {
				if j := int32(occ[at]); int(j) != i && !slices.Contains(r.ids[list+len(vars):], j) {
					r.ids = append(r.ids, j)
				}
			}
		}
		slices.Sort(r.ids[list+len(vars):])
		c.ids = r.carve(list)
	}
	r.ids, r.occ = r.ids[:base], occ
	return conds
}

// part returns c's part, giving c one on the first call; cond is c's
// recorded condition. Racing workers compute equal parts; one is kept.
func (r *run) part(c *pathCond, cond smt.Expr, sc *scratch) *condPart {
	if p := c.part.Load(); p != nil {
		return p
	}
	form, names := r.alpha(cond, sc)
	p := &condPart{form: form, syms: r.symbols(make([]int32, 0, len(names)), names)}
	if !c.part.CompareAndSwap(nil, p) {
		return c.part.Load()
	}
	return p
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
		x, y := r.facts[xy[0]].names, r.facts[xy[1]].names
		syms := [2][]int32{r.strIDs[x[0]:x[1]], r.strIDs[y[0]:y[1]]}
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
			p := r.part(&sc.conds[side][i], in.Trace.PathConds[i].Cond, sc)
			k = binary.AppendUvarint(k, uint64(p.form))
			for _, n := range p.syms {
				k = binary.AppendUvarint(k, sc.number(side, n))
			}
		}
	}
	sc.key = k
	return k
}

// templates returns the cycle's C-edge templates, (S1b, S2a) of role 0
// (rows "r1.") and (S2b, S1a) of role 1 ("r2."), each built once per run.
func (r *run) templates(cyc Cycle, sc *scratch) (out [2]*edgeTmpl) {
	for j, xy := range [2][2]int32{{cyc.at[1], cyc.at[2]}, {cyc.at[3], cyc.at[0]}} {
		fx, fy := &r.facts[xy[0]], &r.facts[xy[1]]
		k := [3]int32{fx.skelID, fy.skelID, int32(j)}
		r.mu.Lock()
		t := r.tmpls[k]
		r.mu.Unlock()
		if t == nil {
			t = &edgeTmpl{Edge: lockmodel.EdgeTemplate(r.models[fx.skelID], r.models[fy.skelID], [2]string{"r1.", "r2."}[j])}
			var syms []string
			t.form, syms = r.alpha(t.Cond, sc)
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
// with e's symbols in the order Rename visits them, in sc's scratch: fixed
// by e's structure (an array's versions carry its root's ID), so alike for
// equal forms.
func (r *run) alpha(e smt.Expr, sc *scratch) (int32, []string) {
	names := sc.names[:0]
	smt.Rename(e, func(n string) string {
		if !slices.Contains(names, n) {
			names = append(names, n)
		}
		return n
	})
	sc.names = names
	sc.sh.Reset(e)
	r.mu.Lock()
	defer r.mu.Unlock()
	form, ok := r.forms[string(sc.sh.Key())]
	if !ok {
		form = int32(len(r.forms))
		r.forms[string(sc.sh.Key())] = form
	}
	return form, names
}
