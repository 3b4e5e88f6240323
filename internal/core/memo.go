package core

// Solver-call memoization for the parallel discharge stage: a two-level
// singleflight table, shape key → canonical key → verdict (DESIGN.md, key decision 8).
//
// Level one keys on the formula's shape (smt.Shape: names numbered in
// first-occurrence order, rendered in one pass into a reused buffer), so a
// group whose formula is a plain renaming of an earlier one — most groups
// of a large corpus — pays no canonicalization.
// Canonicalization runs once per shape, on the shape's symbol indices
// (smt.Shape.Canon, in scratch the worker's Shape owns); Canon is equivariant
// under renaming, so that result composed with the caller's renaming
// (smt.Shape.Rebase, built only when a SAT model has to be translated
// back) is exactly what Canon returns for the caller's formula.
//
// Level two keys on the canonical formula's string (rendered once per
// shape) and solves the canonical expression itself — built by the owner
// of a level-two miss, nobody else needs it: the cached verdict and model
// do not depend on which candidate computed them, and each caller
// translates the model back through its own renaming. That
// keeps reports byte-identical whether a verdict came from the solver or
// the cache, at any parallelism. Shapes that Canon's stronger equivalences
// (operand order, constant abstraction, shifts) identify meet here.
//
// Concurrent callers with the same key wait for the first instead of
// computing twice, so CanonCalls is the number of distinct shapes and
// SolverCalls the number of distinct canonical keys: deterministic.

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"weseer/internal/obs"
	"weseer/internal/smt"
	"weseer/internal/solver"
)

// shapeEntry is level one: the canonicalization of one formula shape.
type shapeEntry struct {
	once  sync.Once
	canon *smt.ShapeCanon // its Key() is the level-two key
}

type memoEntry struct {
	ready  chan struct{}
	status solver.Status
	model  *smt.Model // canonical-space model (SAT only)
}

type memoTable struct {
	mu sync.Mutex
	// shapes is level one; its size is Stats.CanonCalls — entries, not
	// computes, so the count does not depend on scheduling.
	shapes map[string]*shapeEntry
	// entries is level two, keyed on the canonical formula's string.
	entries map[string]*memoEntry
	// scratch[tid] is worker tid's shape buffer, reused group after group.
	scratch []smt.Shape
	// canonNanos sums the time the shape owners spent canonicalizing:
	// with len(shapes), Stats' view of level one.
	canonNanos atomic.Int64

	// obs and latency, when set, receive each solver call's span and wall
	// time: solve is the one place that times the call and holds its result.
	obs     *obs.Observer
	latency *obs.Histogram
}

// newMemoTable returns a table for worker ids 0..workers (0: no pool).
func newMemoTable(workers int) *memoTable {
	return &memoTable{
		shapes:  map[string]*shapeEntry{},
		entries: map[string]*memoEntry{},
		scratch: make([]smt.Shape, workers+1),
	}
}

// solve discharges formula through the table, with the solver's default
// limits. The second return reports a memo hit: the verdict was served from
// an already-computed (or concurrently computing) entry without a solver
// call. The owner of a miss, running as worker tid, charges the call, its
// wall time and its engine counters to out.
func (m *memoTable) solve(ctx context.Context, formula smt.Expr, tid int, out *Stats) (solver.Result, bool) {
	sh := &m.scratch[tid]
	sh.Reset(formula)

	m.mu.Lock()
	s, ok := m.shapes[string(sh.Key())] // no copy for the lookup
	if !ok {
		s = &shapeEntry{}
		m.shapes[string(sh.Key())] = s
	}
	m.mu.Unlock()
	s.once.Do(func() {
		start := time.Now()
		s.canon = sh.Canon()
		m.canonNanos.Add(int64(time.Since(start)))
	})
	key := s.canon.Key()

	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		m.mu.Unlock()
		select {
		case <-e.ready:
			return translateResult(e, s, sh), true
		case <-ctx.Done():
			return solver.Result{Status: solver.UNKNOWN}, false
		}
	}
	e := &memoEntry{ready: make(chan struct{})}
	m.entries[key] = e
	m.mu.Unlock()

	expr := s.canon.Expr()
	sp := m.obs.StartSpan(tid, "solve")
	start := time.Now()
	sres := solver.Solve(ctx, expr)
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

	if ctx.Err() != nil {
		// A canceled solve yields UNKNOWN regardless of the formula —
		// drop the entry rather than poison the table, then wake waiters
		// (they share the canceled ctx and will bail the same way). The
		// shape entry stays: Canon is not cancelable, so it is complete.
		m.mu.Lock()
		delete(m.entries, key)
		m.mu.Unlock()
		e.status = solver.UNKNOWN
		close(e.ready)
		return solver.Result{Status: solver.UNKNOWN}, false
	}

	e.status = sres.Status
	e.model = sres.Model
	close(e.ready)
	return translateResult(e, s, sh), false
}

// translateResult maps an entry's canonical-space verdict back into the
// caller's original variable (and, for constant-abstracted formulas,
// value) space. Only a model needs the caller's renaming composed.
func translateResult(e *memoEntry, s *shapeEntry, sh *smt.Shape) solver.Result {
	if e.model == nil {
		return solver.Result{Status: e.status}
	}
	return solver.Result{Status: e.status, Model: smt.TranslateModel(e.model, sh.Rebase(s.canon))}
}
