package solver

// Propositional layer: NNF conversion, Tseitin CNF encoding, and a CDCL
// search engine (two-watched-literal unit propagation, first-UIP conflict
// analysis with clause learning, non-chronological backjumping, phase
// saving, and an EVSIDS-style decision heuristic). Theory refutations
// enter the engine as learned core clauses and go through the same
// conflict-analysis machinery as propositional conflicts.

// lit is a literal: variable index shifted left once, low bit = negated.
type lit int32

func mkLit(v int, neg bool) lit {
	l := lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

func (l lit) varIdx() int { return int(l) >> 1 }
func (l lit) negated() bool {
	return l&1 == 1
}
func (l lit) negate() lit { return l ^ 1 }

// pnode is a node of the NNF formula tree, an index into session.nodes;
// an and/or node's children are session.kids[lo:hi].
type pnode struct {
	kind   pkind
	b      bool // for pConst
	lit    lit  // for pLit
	lo, hi int32
}

type pkind uint8

const (
	pLit pkind = iota
	pConst
	pAnd
	pOr
)

// tseitin encodes node n into d's input clauses and returns a literal
// equivalent to it. Variables [0, numAtoms) are atom variables; the rest
// are Tseitin auxiliaries. Constant nodes return (0, true, b): handled by
// callers.
func (s *session) tseitin(d *cdcl, n int32) (lit, bool /*isConst*/, bool /*constVal*/) {
	nd := s.nodes[n]
	switch nd.kind {
	case pLit:
		return nd.lit, false, false
	case pConst:
		return 0, true, nd.b
	}
	isAnd := nd.kind == pAnd
	base := len(s.kidLits)
	for _, k := range s.kids[nd.lo:nd.hi] {
		l, isC, cv := s.tseitin(d, k)
		if isC {
			if cv == isAnd {
				continue // neutral
			}
			s.kidLits = s.kidLits[:base]
			return 0, true, !isAnd // absorbing
		}
		s.kidLits = append(s.kidLits, l)
	}
	kidLits := s.kidLits[base:]
	s.kidLits = s.kidLits[:base]
	if len(kidLits) == 0 {
		return 0, true, isAnd
	}
	if len(kidLits) == 1 {
		return kidLits[0], false, false
	}
	aux := mkLit(d.numVars, false)
	d.numVars++
	// aux ↔ ∧ kids: (¬aux ∨ kid) per kid, then (aux ∨ ¬kid₁ ∨ …); aux ↔ ∨
	// kids is the same over negated literals.
	neg := lit(0)
	if !isAnd {
		neg = 1
	}
	for _, kl := range kidLits {
		d.addInput(aux.negate()^neg, kl^neg)
	}
	d.lits = append(d.lits, lit(len(kidLits)+1), aux^neg)
	for _, kl := range kidLits {
		d.lits = append(d.lits, kl.negate()^neg)
	}
	d.inputs++
	return aux, false, false
}

// ---------------------------------------------------------------------------
// CDCL engine

// A clause is an int32 reference c into the engine's literal arena:
// lits[c] holds its length and lits[c+1:] its literals. Under the
// two-watched-literal scheme the engine watches its first two literals and
// maintains the invariant that a watch only becomes false after every
// other literal of the clause is false (at deeper or equal decision
// levels), so clauses need inspection only when a watched literal is
// falsified.
const noClause int32 = -1

// cdcl is a conflict-driven clause-learning SAT engine. It replaces the
// chronological-backtracking DPLL the solver started with: propagation is
// watched-literal, conflicts are analyzed to a first-UIP learned clause,
// and the search backjumps non-chronologically to the clause's assertion
// level. Theory refutations are added via learnClause and analyzed with
// exactly the same machinery. Its tables hold no pointers and are reused
// call after call: Solve empties the arena, start sizes the rest.
type cdcl struct {
	numVars int
	// lits is the clause arena: the input clauses (inputs of them), then
	// the learned ones.
	lits   []lit
	inputs int
	// watches[l] lists the clauses watching literal l (visited when l is
	// falsified, i.e. when ¬l is asserted).
	watches [][]int32

	assign []int8  // 0 unassigned, 1 true, -1 false
	level  []int   // decision level of each assigned variable
	reason []int32 // the clause that implied each assigned variable, or noClause
	trail  []lit
	// trailLim[i] is the trail length when decision level i+1 was opened.
	trailLim []int
	qhead    int

	// EVSIDS: bump activity of conflict-involved variables, then inflate
	// the increment (equivalent to decaying every activity by 0.95).
	activity []float64
	varInc   float64

	// phase[v] caches the polarity v last held before being unassigned, so
	// re-decisions revisit the part of the space the search was exploring.
	phase []int8

	seen   []bool // scratch for analyze
	learnt []lit  // analyze's clause

	// theoryAtom marks variables whose assignment matters to the theory
	// solvers; theoryEvents counts assignments to them, letting the
	// DPLL(T) loop skip theory checks that cannot observe anything new.
	theoryAtom   []bool
	theoryEvents int

	// ok is false when the input clauses are contradictory at level 0.
	ok    bool
	stats *Stats
}

// resized returns s with length n and every element zero, reusing its
// array when it is large enough.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// addInput appends an input clause to the arena.
func (d *cdcl) addInput(ls ...lit) {
	d.push(ls)
	d.inputs++
}

// start sizes the tables for d.numVars variables and attaches the input
// clauses in order; unit clauses are enqueued at level 0. It leaves ok
// false at an empty clause or one that contradicts a level-0 fact.
func (d *cdcl) start() {
	n := d.numVars
	if cap(d.watches) < 2*n {
		d.watches = append(d.watches[:cap(d.watches)], make([][]int32, 2*n-cap(d.watches))...)
	}
	d.watches = d.watches[:2*n]
	for i := range d.watches {
		d.watches[i] = d.watches[i][:0]
	}
	d.assign, d.level, d.reason = resized(d.assign, n), resized(d.level, n), resized(d.reason, n)
	d.activity, d.phase, d.seen = resized(d.activity, n), resized(d.phase, n), resized(d.seen, n)
	d.theoryAtom = resized(d.theoryAtom, n)
	d.trail, d.trailLim, d.qhead, d.varInc, d.theoryEvents, d.ok = d.trail[:0], d.trailLim[:0], 0, 1.0, 0, true
	for c := int32(0); int(c) < len(d.lits); c += 1 + int32(d.lits[c]) {
		switch d.lits[c] {
		case 0:
			d.ok = false
		case 1:
			d.ok = d.enqueue(d.lits[c+1], noClause)
		default:
			d.watch(c)
		}
		if !d.ok {
			return
		}
	}
}

// clause returns the literals of clause c.
func (d *cdcl) clause(c int32) []lit { return d.lits[c+1 : c+1+int32(d.lits[c])] }

// push appends clause ls to the arena and returns its reference.
func (d *cdcl) push(ls []lit) int32 {
	c := int32(len(d.lits))
	d.lits = append(d.lits, lit(len(ls)))
	d.lits = append(d.lits, ls...)
	return c
}

func (d *cdcl) value(l lit) int8 {
	v := d.assign[l.varIdx()]
	if l.negated() {
		return -v
	}
	return v
}

func (d *cdcl) decisionLevel() int { return len(d.trailLim) }

func (d *cdcl) watch(c int32) {
	d.watches[d.lits[c+1]] = append(d.watches[d.lits[c+1]], c)
	d.watches[d.lits[c+2]] = append(d.watches[d.lits[c+2]], c)
}

// enqueue asserts l (with an optional reason clause), returning false if l
// is already false under the current assignment.
func (d *cdcl) enqueue(l lit, from int32) bool {
	switch d.value(l) {
	case 1:
		return true
	case -1:
		return false
	}
	d.assertLit(l, from)
	return true
}

func (d *cdcl) assertLit(l lit, from int32) {
	v := l.varIdx()
	if l.negated() {
		d.assign[v] = -1
	} else {
		d.assign[v] = 1
	}
	d.level[v] = d.decisionLevel()
	d.reason[v] = from
	d.trail = append(d.trail, l)
	if d.theoryAtom[v] {
		d.theoryEvents++
	}
}

// propagate runs watched-literal unit propagation to fixpoint. It returns
// the conflicting clause, or noClause if the assignment is
// propagation-closed.
func (d *cdcl) propagate() int32 {
	for d.qhead < len(d.trail) {
		p := d.trail[d.qhead]
		d.qhead++
		falseLit := p.negate()
		ws := d.watches[falseLit]
		n := 0
	clauses:
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			lits := d.clause(c)
			// Normalize so the falsified watch sits at lits[1].
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			if d.value(lits[0]) == 1 {
				ws[n] = c
				n++
				continue
			}
			// Look for a non-false literal to take over the watch.
			for k := 2; k < len(lits); k++ {
				if d.value(lits[k]) != -1 {
					lits[1], lits[k] = lits[k], lits[1]
					d.watches[lits[1]] = append(d.watches[lits[1]], c)
					continue clauses
				}
			}
			// Clause is unit (lits[0] unassigned) or conflicting.
			ws[n] = c
			n++
			if d.value(lits[0]) == -1 {
				for i++; i < len(ws); i++ {
					ws[n] = ws[i]
					n++
				}
				d.watches[falseLit] = ws[:n]
				d.qhead = len(d.trail)
				return c
			}
			d.stats.Propagations++
			d.assertLit(lits[0], c)
		}
		d.watches[falseLit] = ws[:n]
	}
	return noClause
}

// cancelUntil undoes all assignments above the given decision level,
// saving phases so later re-decisions keep their polarity.
func (d *cdcl) cancelUntil(lvl int) {
	if d.decisionLevel() <= lvl {
		return
	}
	back := d.trailLim[lvl]
	for i := len(d.trail) - 1; i >= back; i-- {
		v := d.trail[i].varIdx()
		d.phase[v] = d.assign[v]
		d.assign[v] = 0
		d.reason[v] = noClause
	}
	d.trail = d.trail[:back]
	d.trailLim = d.trailLim[:lvl]
	d.qhead = back
}

func (d *cdcl) bumpVar(v int) {
	d.activity[v] += d.varInc
	if d.activity[v] > 1e100 {
		for i := range d.activity {
			d.activity[i] *= 1e-100
		}
		d.varInc *= 1e-100
	}
}

// analyze performs first-UIP conflict analysis on confl, which must be
// falsified with at least one literal at the current decision level. It
// returns the learned clause (asserting literal first, a deepest-level
// remaining literal second), valid until the next analyze, and the
// backjump level.
func (d *cdcl) analyze(confl int32) ([]lit, int) {
	learnt := append(d.learnt[:0], 0) // slot 0 reserved for the asserting literal
	pathC := 0
	var p lit = -1
	idx := len(d.trail) - 1

	for {
		start := 0
		if p != -1 {
			// p's reason clause has p at lits[0]; skip it.
			start = 1
		}
		for _, q := range d.clause(confl)[start:] {
			v := q.varIdx()
			if d.seen[v] || d.level[v] == 0 {
				continue
			}
			d.seen[v] = true
			d.bumpVar(v)
			if d.level[v] >= d.decisionLevel() {
				pathC++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Walk the trail backwards to the next marked literal.
		for !d.seen[d.trail[idx].varIdx()] {
			idx--
		}
		p = d.trail[idx]
		idx--
		v := p.varIdx()
		d.seen[v] = false
		pathC--
		if pathC <= 0 {
			break
		}
		confl = d.reason[v]
	}
	learnt[0] = p.negate()

	// Backjump level: the deepest level among the non-asserting literals.
	// Keep a literal of that level at slot 1 so the watches land on the
	// two deepest literals of the clause.
	bt := 0
	for i := 1; i < len(learnt); i++ {
		d.seen[learnt[i].varIdx()] = false
		if l := d.level[learnt[i].varIdx()]; l > bt {
			bt = l
			learnt[1], learnt[i] = learnt[i], learnt[1]
		}
	}
	d.varInc /= 0.95
	d.learnt = learnt
	return learnt, bt
}

// resolveConflict analyzes a falsified clause, backjumps, and asserts the
// learned literal. It returns false when the conflict is at level 0, i.e.
// the search space is exhausted.
func (d *cdcl) resolveConflict(confl int32) bool {
	maxLvl := 0
	for _, q := range d.clause(confl) {
		if l := d.level[q.varIdx()]; l > maxLvl {
			maxLvl = l
		}
	}
	if maxLvl == 0 {
		return false
	}
	// A theory clause may be falsified entirely below the current level;
	// drop to its deepest level so analyze sees a current-level conflict.
	d.cancelUntil(maxLvl)
	learnt, bt := d.analyze(confl)
	if bt < d.decisionLevel()-1 {
		d.stats.Backjumps++
	}
	d.cancelUntil(bt)
	d.stats.LearnedClauses++
	if len(learnt) == 1 {
		return d.enqueue(learnt[0], noClause)
	}
	c := d.push(learnt)
	d.watch(c)
	return d.enqueue(learnt[0], c)
}

// learnClause adds a clause the theory solvers refuted (an unsat-core or
// blocking clause over atom variables, fully falsified by the current
// assignment) and drives conflict resolution with it. It returns false
// when the clause exhausts the search. The engine keeps a copy of ls.
func (d *cdcl) learnClause(ls []lit) bool {
	if len(ls) == 0 {
		return false
	}
	if len(ls) == 1 {
		d.stats.LearnedClauses++
		d.cancelUntil(0)
		return d.enqueue(ls[0], noClause)
	}
	c := d.push(ls)
	ls = d.clause(c)
	// Watch the two deepest-level literals: every other literal of the
	// clause is unassigned before them on any future trail.
	for i := 0; i < 2; i++ {
		best := i
		for j := i + 1; j < len(ls); j++ {
			if d.level[ls[j].varIdx()] > d.level[ls[best].varIdx()] {
				best = j
			}
		}
		ls[i], ls[best] = ls[best], ls[i]
	}
	d.watch(c)
	return d.resolveConflict(c)
}

// decide opens a new decision level and assigns v the given polarity.
func (d *cdcl) decide(v int, value bool) {
	d.stats.Decisions++
	d.trailLim = append(d.trailLim, len(d.trail))
	d.assertLit(mkLit(v, !value), noClause)
}

// savedPhase returns the phase v held before it was last unassigned:
// +1 true, -1 false, 0 no saved phase.
func (d *cdcl) savedPhase(v int) int8 { return d.phase[v] }

// pickVar returns the unassigned variable with the highest activity
// (lowest index on ties), or -1 when the assignment is complete. With all
// activities zero this is the lowest-index-first order of the original
// DPLL engine.
func (d *cdcl) pickVar() int {
	best, bestAct := -1, -1.0
	for v := 0; v < d.numVars; v++ {
		if d.assign[v] == 0 && d.activity[v] > bestAct {
			best, bestAct = v, d.activity[v]
		}
	}
	return best
}

func (d *cdcl) fullyAssigned() bool { return len(d.trail) == d.numVars }
