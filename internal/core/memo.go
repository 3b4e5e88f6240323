package core

// Solver-call memoization for the parallel discharge stage: a two-level
// singleflight table, skeleton key → canonical key → verdict (DESIGN.md,
// key decision 8).
//
// Level one keys on the group's skeleton key (run.skeletonKey), known
// before any formula exists: equal keys mean formulas equal up to
// renaming, so an UNSAT or UNKNOWN hit — most groups of a large corpus —
// builds no formula, a SAT hit one to translate the model into. The owner
// of a miss builds the formula and canonicalizes its shape
// (smt.Shape.Canon); Canon is equivariant under renaming, so composed with
// a caller's renaming (smt.Shape.Rebase) it is Canon of its formula.
//
// Level two keys on the canonical formula's string; its owner builds and
// solves the canonical expression. Each caller translates the model back
// through its own renaming, so reports are byte-identical at any
// parallelism. Skeletons that Canon's stronger equivalences (operand
// order, constant abstraction, shifts) identify meet here. Concurrent
// callers of a key wait for the first, so CanonCalls (distinct skeleton
// keys) and SolverCalls (distinct canonical keys) are deterministic.

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"weseer/internal/obs"
	"weseer/internal/smt"
	"weseer/internal/solver"
)

// memoEntry is one key's verdict at either level, valid once ready is
// closed with ok set; at level one, canon is the key's canonicalization.
type memoEntry struct {
	ready  chan struct{}
	ok     bool
	canon  *smt.ShapeCanon
	status solver.Status
	model  *smt.Model // canonical-space model (SAT only)
}

type memoTable struct {
	mu sync.Mutex
	// skels and entries are levels one and two; len(skels) is
	// Stats.CanonCalls — entries, not computes: independent of scheduling.
	skels, entries map[string]*memoEntry
	// scratch[tid] is worker tid's, reused group after group.
	scratch []scratch
	// canonNanos sums the skeleton owners' canonicalization time.
	canonNanos atomic.Int64

	// obs and latency, when set, receive each solver call's span and wall
	// time: call is the one place that times the call and holds its result.
	obs     *obs.Observer
	latency *obs.Histogram
}

// newMemoTable returns a table for worker ids 0..workers (0: no pool).
func newMemoTable(workers int) *memoTable {
	return &memoTable{skels: map[string]*memoEntry{}, entries: map[string]*memoEntry{}, scratch: make([]scratch, workers+1)}
}

// solve discharges the group of skeleton key key; build, called by the
// key's owner and on a SAT hit only, returns its formula. It returns the
// verdict, the formula if built, and whether it was a memo hit — served
// without a solver call of its own. The owner of a level-two miss, as
// worker tid, charges the call, its wall time and engine counters to out.
func (m *memoTable) solve(ctx context.Context, key []byte, build func() smt.Expr, tid int, out *Stats) (solver.Result, smt.Expr, bool) {
	sh := &m.scratch[tid].sh
	var f smt.Expr
	hit := true
	s := flight(ctx, m, m.skels, key, func(s *memoEntry) bool {
		f = build()
		sh.Reset(f)
		start := time.Now()
		s.canon = sh.Canon()
		m.canonNanos.Add(int64(time.Since(start)))
		e := flight(ctx, m, m.entries, s.canon.Key(), func(e *memoEntry) bool {
			hit = false
			return m.call(ctx, e, s.canon, tid, out)
		})
		if e == nil {
			return false
		}
		s.status, s.model = e.status, e.model
		return true
	})
	switch {
	case s == nil:
		return solver.Result{Status: solver.UNKNOWN}, f, false
	case s.model == nil:
		return solver.Result{Status: s.status}, f, hit
	case f == nil:
		f = build()
		sh.Reset(f)
	}
	return solver.Result{Status: s.status, Model: smt.TranslateModel(s.model, sh.Rebase(s.canon))}, f, hit
}

// flight returns table's entry for key, calling fill on it if no caller
// has: concurrent callers wait for the first. A key held in bytes is
// copied only when it becomes an entry's. A fill that reports failure
// — its context was canceled — leaves no entry, and its waiters try again;
// nil if the caller's fill fails or ctx is done first.
func flight[K string | []byte](ctx context.Context, m *memoTable, table map[string]*memoEntry, key K, fill func(*memoEntry) bool) *memoEntry {
	for {
		m.mu.Lock()
		e, ok := table[string(key)]
		if !ok {
			e = &memoEntry{ready: make(chan struct{})}
			table[string(key)] = e
		}
		m.mu.Unlock()
		if !ok {
			if e.ok = fill(e); !e.ok {
				m.mu.Lock()
				delete(table, string(key))
				m.mu.Unlock()
			}
			close(e.ready)
			if !e.ok {
				return nil
			}
			return e
		}
		select {
		case <-e.ready:
			if e.ok {
				return e
			}
		case <-ctx.Done():
			return nil
		}
	}
}

// call solves canonical formula c into e, building its expression — the
// owner of a level-two miss is the only one who needs it. A canceled solve
// yields UNKNOWN regardless of the formula, so it reports failure.
func (m *memoTable) call(ctx context.Context, e *memoEntry, c *smt.ShapeCanon, tid int, out *Stats) bool {
	expr := c.Expr()
	sp := m.obs.StartSpan(tid, "solve")
	start := time.Now()
	sres := m.scratch[tid].sv.Solve(ctx, expr)
	dur := time.Since(start)
	out.SolverTime += dur
	out.SolverCalls++
	out.Engine.Add(sres.Stats)
	if m.obs != nil {
		sp.End(obs.String("status", sres.Status.String()),
			obs.Int("decisions", sres.Stats.Decisions),
			obs.Int("conflicts", sres.Stats.Conflicts),
			obs.Int("theory_calls", sres.Stats.TheoryCalls))
		m.latency.Observe(dur.Seconds())
	}
	e.status, e.model = sres.Status, sres.Model
	return ctx.Err() == nil
}

// scratch is a phase-3 worker's: the group's key, its symbols' slots, per
// side its path conditions and cone; the memo's Shape; the Solver its
// solver calls reuse; run.alpha's names.
type scratch struct {
	sh    smt.Shape
	sv    solver.Solver
	names []string
	key   []byte
	slots []symSlot // at 2·id+side, for run.symbols id
	epoch uint32    // the group's: a slot field marked with another is unset
	next  uint64    // the group's last number
	conds [2][]pathCond
	in    [2][]int32
}

// symSlot is a symbol's on one side: its number in the group and whether
// it seeds the group's cone, each set when its mark is the group's epoch.
type symSlot struct {
	num           uint64
	numAt, seedAt uint32
}

// begin starts a group: no symbol numbered or seeded.
func (sc *scratch) begin() {
	if sc.epoch++; sc.epoch == 0 {
		clear(sc.slots)
		sc.epoch = 1
	}
	sc.next = 0
}

// slot returns symbol id's slot on side.
func (sc *scratch) slot(side int, id int32) *symSlot {
	i := 2*int(id) + side
	if i >= len(sc.slots) {
		sc.slots = slices.Grow(sc.slots, i+1-len(sc.slots))[:i+1]
	}
	return &sc.slots[i]
}

// number returns symbol id's number on side, the next on its first
// occurrence.
func (sc *scratch) number(side int, id int32) uint64 {
	s := sc.slot(side, id)
	if s.numAt != sc.epoch {
		sc.next++
		s.num, s.numAt = sc.next, sc.epoch
	}
	return s.num
}

// cone lists in sc.in[side], in recorded order, the side's path conditions
// recorded before statement seq and transitively connected to its seeds,
// the C-edges' variables (the trace's run satisfies the rest): the one
// place the analysis selects path conditions by statement.
func (sc *scratch) cone(side, seq int) {
	conds, in := sc.conds[side], sc.in[side][:0]
	for i := range conds {
		if c := &conds[i]; int(c.after) <= seq && slices.ContainsFunc(c.vars(), func(v int32) bool { return sc.slot(side, v).seedAt == sc.epoch }) {
			in = append(in, int32(i))
		}
	}
	for k := 0; k < len(in); k++ { // and those sharing a variable with one in the cone
		for _, j := range conds[in[k]].adj() {
			if int(conds[j].after) <= seq && !slices.Contains(in, j) {
				in = append(in, j)
			}
		}
	}
	slices.Sort(in)
	sc.in[side] = in
}
