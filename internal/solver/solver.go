// Package solver implements the SMT solver WeSEER uses in place of Z3
// (the paper uses Z3 4.8.14). It decides the logic fragment the deadlock
// analyzer emits — Boolean combinations of linear Int/Real comparisons,
// string (dis)equality, and reads over Boolean container arrays — via a
// lazy CDCL(T) loop: a conflict-driven clause-learning search over the
// Tseitin-encoded Boolean skeleton, with assignments checked against the
// arithmetic and string theories and theory refutations fed back as
// learned core clauses. On SAT it returns a verified model (the
// satisfying assignment WeSEER's reports use to reproduce a deadlock);
// every model is re-checked by evaluation before being returned.
package solver

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"weseer/internal/smt"
)

// Status is the outcome of a Solve call, mirroring SAT / UNSAT / timeout
// outcomes of the paper's Z3 usage.
type Status uint8

// Solver outcomes.
const (
	SAT Status = iota
	UNSAT
	UNKNOWN
)

func (s Status) String() string {
	switch s {
	case SAT:
		return "SAT"
	case UNSAT:
		return "UNSAT"
	case UNKNOWN:
		return "UNKNOWN"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Stats reports work done by one Solve call.
type Stats struct {
	Atoms       int
	Clauses     int
	Decisions   int
	Conflicts   int
	TheoryCalls int

	// CDCL counters: literals assigned by watched-literal unit
	// propagation, clauses learned from conflict analysis and theory
	// cores, and conflicts whose backjump skipped at least one decision
	// level (non-chronological backtracking at work).
	Propagations   int
	LearnedClauses int
	Backjumps      int
}

// Add accumulates o's counters into s (for cross-call aggregation).
func (s *Stats) Add(o Stats) {
	s.Atoms += o.Atoms
	s.Clauses += o.Clauses
	s.Decisions += o.Decisions
	s.Conflicts += o.Conflicts
	s.TheoryCalls += o.TheoryCalls
	s.Propagations += o.Propagations
	s.LearnedClauses += o.LearnedClauses
	s.Backjumps += o.Backjumps
}

// Result is the outcome of Solve. Model is non-nil exactly when Status is
// SAT, and is guaranteed to satisfy the input formula (verified by
// evaluation).
type Result struct {
	Status Status
	Model  *smt.Model
	Stats  Stats
}

// maxTheoryCalls caps the CDCL(T) theory checks of one Solve before it
// gives up UNKNOWN; defaultFMLimits bounds each check.
const maxTheoryCalls = 20000

// Solver is a workspace for Solve calls: the atom indexes, the NNF tree,
// the clause arena and the engine's and the arithmetic theory's tables,
// grown once and reset call after call rather than reallocated. Its zero
// value is ready to use. A Solver is not safe for concurrent use; its
// owner (one phase-3 worker) keeps it, and a Result shares nothing with it.
type Solver struct {
	s session
	d cdcl
	// budget, when non-zero, replaces maxTheoryCalls (tests set it).
	budget int
}

// Solve decides f within the package's work budgets, honoring ctx
// cancellation: the CDCL(T) loop and the Fourier–Motzkin elimination
// rounds poll the context and abandon the search promptly once it is done.
// A canceled call returns UNKNOWN; callers that need to tell cancellation
// apart from a budget UNKNOWN check ctx.Err().
func (sv *Solver) Solve(ctx context.Context, f smt.Expr) Result {
	fm := defaultFMLimits()
	if ctx != nil && ctx.Done() != nil {
		fm.stop = func() bool { return ctx.Err() != nil }
	}
	theoryCalls := cmp.Or(sv.budget, maxTheoryCalls)
	f = smt.Simplify(f)
	s, d := &sv.s, &sv.d
	s.reset(f, fm)
	f = expandSelects(f)

	if c, ok := f.(smt.BoolConst); ok {
		if c.B {
			return Result{Status: SAT, Model: smt.NewModel()}
		}
		return Result{Status: UNSAT}
	}

	root, ok := s.nnf(f, true)
	if !ok {
		return Result{Status: UNKNOWN, Stats: s.stats}
	}
	d.lits, d.inputs, d.stats = d.lits[:0], 0, &s.stats
	s.ackermann(d)
	d.numVars = len(s.atoms)
	rootLit, isConst, constVal := s.tseitin(d, root)
	if isConst {
		if constVal {
			return Result{Status: SAT, Model: smt.NewModel(), Stats: s.stats}
		}
		return Result{Status: UNSAT, Stats: s.stats}
	}
	d.addInput(rootLit)
	s.stats.Atoms = len(s.atoms)
	s.stats.Clauses = d.inputs

	d.start()
	for i := range s.atoms {
		k := s.atoms[i].kind
		d.theoryAtom[i] = k == aLin || k == aStr
	}

	// CDCL(T): propagate to fixpoint, theory-check the partial assignment
	// (learning a shrunken unsat core on conflict and resolving it through
	// first-UIP analysis), decide, repeat. At a full assignment the theory
	// model is verified against the input formula. Theory checks are
	// skipped while no new theory atom has been assigned since the last
	// consistent check: a theory-consistent assignment stays consistent
	// under purely Boolean/auxiliary extensions.
	sawUnknown := false
	exhausted := func() Result {
		if sawUnknown {
			return Result{Status: UNKNOWN, Stats: s.stats}
		}
		return Result{Status: UNSAT, Stats: s.stats}
	}
	if !d.ok {
		return exhausted()
	}
	checkedEvents := -1
	for s.stats.TheoryCalls < theoryCalls {
		if fm.stop != nil && fm.stop() {
			return Result{Status: UNKNOWN, Stats: s.stats}
		}
		if confl := d.propagate(); confl != noClause {
			s.stats.Conflicts++
			if !d.resolveConflict(confl) {
				return exhausted()
			}
			continue
		}
		full := d.fullyAssigned()
		if !full && d.theoryEvents == checkedEvents {
			v := d.pickVar()
			d.decide(v, s.preferredPhase(d, v))
			continue
		}
		s.stats.TheoryCalls++
		checkedEvents = d.theoryEvents
		model, st, core := s.theoryCheck(d)
		if st == linUNSAT {
			// Learn the negation of the (shrunken) conflicting core and
			// resolve it like any other conflict: analysis backjumps
			// non-chronologically and the learned clause prunes every
			// assignment extending the core, not just the current one.
			s.clause = s.clause[:0]
			for _, id := range core {
				s.clause = append(s.clause, mkLit(id, d.assign[id] == 1))
			}
			s.stats.Conflicts++
			if !d.learnClause(s.clause) {
				return exhausted()
			}
			continue
		}
		if full {
			// Full assignment with a consistent theory.
			if st == linSAT && smt.Eval(f, model).B {
				return Result{Status: SAT, Model: model, Stats: s.stats}
			}
			// UNKNOWN theory or (defensively) failed verification: block
			// this complete atom assignment and move on.
			sawUnknown = true
			s.clause = s.clause[:0]
			for id := range s.atoms {
				s.clause = append(s.clause, mkLit(id, d.assign[id] == 1))
			}
			if !d.learnClause(s.clause) {
				return exhausted()
			}
			continue
		}
		v := d.pickVar()
		d.decide(v, s.preferredPhase(d, v))
	}
	return Result{Status: UNKNOWN, Stats: s.stats}
}

// ---------------------------------------------------------------------------
// Atomization

type atomKind uint8

const (
	aLin atomKind = iota
	aStr
	aBool
	aSel
)

type atomInfo struct {
	kind atomKind
	// row indexes session.linRows, for aLin: the atom's constraint
	// (op ∈ {opLE, opLT, opEQ}) and its prebuilt negation, so theory checks
	// hand the arithmetic solver the atoms' immutable rows whichever way
	// they are assigned.
	row  int
	l, r strTerm // for aStr (always an equality atom)
	name string  // for aBool
	root string  // for aSel
	key  smt.Expr
}

// strPair interns string-equality atoms by their canonically ordered
// operand pair; selKey interns select atoms by root array and the key
// expression's injective rendering (smt.TypedString), so structurally
// equal keys share one atom however many copies the formula holds.
type strPair struct{ l, r strTerm }

type selKey struct{ root, key string }

type session struct {
	atoms []atomInfo
	// Atom-interning indexes, one per atom kind.
	boolAtoms  map[string]int
	strAtoms   map[strPair]int
	selAtomIdx map[selKey]int
	// linIndex maps linCon.hash to the linear atom holding that row; a
	// row whose slot is taken by a different one probes hash+1, hash+2, ….
	linIndex map[uint64]int
	linRows  [][2]linCon // per linear atom: the row and its negation

	// The formula's variables in sorted-name order, their index the id the
	// arithmetic theory's rows, tie-breaks and assignments are written in.
	vars  []smt.Var
	isInt []bool
	lin   linSolver

	selAtoms []int // indices of aSel atoms
	stats    Stats
	// lastAsn caches the most recent satisfying arithmetic assignment
	// (valid once haveLast); successive theory checks mostly extend a
	// consistent partial assignment, so re-evaluating the cached model
	// avoids a full Fourier–Motzkin run on the (common) still-satisfied
	// path.
	lastAsn  assignment
	haveLast bool

	// The NNF tree: nodes, and the children of and/or nodes as ranges of
	// kids; kidNodes and kidLits are nnf's and tseitin's stacks.
	nodes    []pnode
	kids     []int32
	kidNodes []int32
	kidLits  []lit

	// Atomization scratch: acc accumulates one comparison's coefficient
	// per variable, accIDs lists the variables it touched, row is the
	// candidate atom, and slab is the chunk new atoms' terms are cut from.
	acc    assignment
	accIDs []int32
	row    []term
	slab   []term
	// Theory-check scratch: the assigned atoms by theory and their rows,
	// string constraints, a shrinking core and its candidate, a clause.
	linIDs, strIDs []int
	rest, nes      []linCon
	strCons        []strConstraint
	core, cand     []int
	clause         []lit
}

// reset empties s for f (already simplified) and numbers f's variables.
func (s *session) reset(f smt.Expr, lim fmLimits) {
	if s.boolAtoms == nil {
		s.boolAtoms, s.strAtoms, s.selAtomIdx, s.linIndex = map[string]int{}, map[strPair]int{}, map[selKey]int{}, map[uint64]int{}
	}
	clear(s.boolAtoms)
	clear(s.strAtoms)
	clear(s.selAtomIdx)
	clear(s.linIndex)
	s.atoms, s.linRows, s.slab, s.selAtoms = s.atoms[:0], s.linRows[:0], s.slab[:0], s.selAtoms[:0]
	s.nodes, s.kids, s.kidNodes, s.kidLits = s.nodes[:0], s.kids[:0], s.kidNodes[:0], s.kidLits[:0]
	s.stats, s.haveLast = Stats{}, false

	// A name's last occurrence decides its sort, as in smt.VarSet.
	s.vars = smt.Vars(s.vars[:0], f)
	slices.Reverse(s.vars)
	slices.SortStableFunc(s.vars, func(a, b smt.Var) int { return strings.Compare(a.Name, b.Name) })
	s.vars = slices.CompactFunc(s.vars, func(a, b smt.Var) bool { return a.Name == b.Name })
	s.isInt = resized(s.isInt, len(s.vars))
	for id, v := range s.vars {
		s.isInt[id] = v.S == smt.SortInt
	}
	s.lin.reset(s.isInt, lim)
	s.lastAsn.reset(len(s.vars))
	s.acc.reset(len(s.vars))
}

func (s *session) addAtom(info atomInfo) int {
	id := len(s.atoms)
	s.atoms = append(s.atoms, info)
	if info.kind == aSel {
		s.selAtoms = append(s.selAtoms, id)
	}
	return id
}

func (s *session) internBool(name string) int {
	if id, ok := s.boolAtoms[name]; ok {
		return id
	}
	id := s.addAtom(atomInfo{kind: aBool, name: name})
	s.boolAtoms[name] = id
	return id
}

func (s *session) internStr(a, b strTerm) int {
	k := strPair{l: a, r: b}
	if id, ok := s.strAtoms[k]; ok {
		return id
	}
	id := s.addAtom(atomInfo{kind: aStr, l: a, r: b})
	s.strAtoms[k] = id
	return id
}

func (s *session) internSel(root string, key smt.Expr) int {
	k := selKey{root: root, key: smt.TypedString(key)}
	if id, ok := s.selAtomIdx[k]; ok {
		return id
	}
	id := s.addAtom(atomInfo{kind: aSel, root: root, key: key})
	s.selAtomIdx[k] = id
	return id
}

// internLin returns the atom of row lc, whose terms are scratch: a new
// atom gets its own copy, and its negation, cut from the slab.
func (s *session) internLin(lc linCon) int {
	h := lc.hash()
	for id, taken := s.linIndex[h]; taken; id, taken = s.linIndex[h] {
		if s.linRows[s.atoms[id].row][0].equal(&lc) {
			return id
		}
		h++
	}
	n := len(lc.terms)
	if cap(s.slab)-len(s.slab) < 2*n {
		s.slab = make([]term, 0, max(2*n, 2*cap(s.slab), 32))
	}
	s.slab = append(s.slab, lc.terms...)
	lc.terms = s.slab[len(s.slab)-n : len(s.slab) : len(s.slab)]
	neg := linCon{terms: lc.terms, rhs: lc.rhs, op: opNE} // ¬(e = b)
	if lc.op != opEQ {
		// ¬(e ≤ b) ⇔ −e < −b and ¬(e < b) ⇔ −e ≤ −b.
		s.slab = negTerms(s.slab, lc.terms)
		neg = linCon{terms: s.slab[len(s.slab)-n : len(s.slab) : len(s.slab)], rhs: lc.rhs.neg(), op: opLT}
		if lc.op == opLT {
			neg.op = opLE
		}
	}
	id := s.addAtom(atomInfo{kind: aLin, row: len(s.linRows)})
	s.linRows = append(s.linRows, [2]linCon{lc, neg})
	s.linIndex[h] = id
	return id
}

// nnf converts e (under polarity pos) into a pnode tree, atomizing leaves.
// It returns ok=false when e falls outside the solvable fragment.
func (s *session) nnf(e smt.Expr, pos bool) (int32, bool) {
	switch t := e.(type) {
	case smt.BoolConst:
		return s.node(pnode{kind: pConst, b: t.B == pos}), true
	case smt.Var:
		if t.S != smt.SortBool {
			return 0, false
		}
		id := s.internBool(t.Name)
		return s.litNode(mkLit(id, !pos)), true
	case smt.Not:
		return s.nnf(t.X, !pos)
	case *smt.NAry:
		kind := pAnd
		if t.Conj != pos {
			kind = pOr
		}
		base := len(s.kidNodes)
		for _, x := range t.Xs {
			k, ok := s.nnf(x, pos)
			if !ok {
				return 0, false
			}
			s.kidNodes = append(s.kidNodes, k)
		}
		lo := int32(len(s.kids))
		s.kids = append(s.kids, s.kidNodes[base:]...)
		s.kidNodes = s.kidNodes[:base]
		return s.node(pnode{kind: kind, lo: lo, hi: int32(len(s.kids))}), true
	case *smt.Select:
		if t.Arr.Parent != nil {
			// expandSelects should have removed non-root selects.
			return 0, false
		}
		id := s.internSel(t.Arr.ID, t.Key)
		return s.litNode(mkLit(id, !pos)), true
	case *smt.Cmp:
		return s.nnfCmp(t, pos)
	}
	return 0, false
}

// node adds n to the NNF tree and returns its index.
func (s *session) node(n pnode) int32 {
	s.nodes = append(s.nodes, n)
	return int32(len(s.nodes) - 1)
}

func (s *session) litNode(l lit) int32 { return s.node(pnode{kind: pLit, lit: l}) }

func (s *session) nnfCmp(c *smt.Cmp, pos bool) (int32, bool) {
	switch c.L.Sort() {
	case smt.SortBool:
		// a = b  ⇔  (a ∧ b) ∨ (¬a ∧ ¬b); a != b is its negation.
		eq := smt.Or(smt.And(c.L, c.R), smt.And(smt.Negate(c.L), smt.Negate(c.R)))
		if c.Op == smt.NE {
			pos = !pos
		}
		return s.nnf(eq, pos)
	case smt.SortString:
		lt, ok1 := strTermOf(c.L)
		rt, ok2 := strTermOf(c.R)
		if !ok1 || !ok2 {
			return 0, false
		}
		// Canonical order for interning.
		a, b := lt, rt
		if b.key() < a.key() {
			a, b = b, a
		}
		id := s.internStr(a, b)
		neg := c.Op == smt.NE
		return s.litNode(mkLit(id, neg == pos)), true
	default:
		return s.nnfNum(c, pos)
	}
}

func strTermOf(e smt.Expr) (strTerm, bool) {
	switch t := e.(type) {
	case smt.StrConst:
		return strTerm{isConst: true, s: t.S}, true
	case smt.Var:
		return strTerm{s: t.Name}, true
	}
	return strTerm{}, false
}

// linearize adds scale·e to the accumulator (variables) and konst
// (constants). It returns false if e is outside the linear fragment.
func (s *session) linearize(e smt.Expr, scale rat, konst *rat) bool {
	switch t := e.(type) {
	case smt.IntConst:
		*konst = konst.add(scale.mul(ratInt(t.V)))
		return true
	case smt.RealConst:
		*konst = konst.add(scale.mul(ratBig(t.V)))
		return true
	case smt.Var:
		i, ok := slices.BinarySearchFunc(s.vars, t.Name, func(v smt.Var, name string) int { return strings.Compare(v.Name, name) })
		if !ok {
			return false
		}
		x := int32(i)
		if s.acc.has[x] {
			s.acc.val[x] = s.acc.val[x].add(scale)
		} else {
			s.acc.set(x, scale)
			s.accIDs = append(s.accIDs, x)
		}
		return true
	case *smt.Arith:
		switch t.Op {
		case smt.OpAdd:
			return s.linearize(t.L, scale, konst) && s.linearize(t.R, scale, konst)
		case smt.OpSub:
			return s.linearize(t.L, scale, konst) && s.linearize(t.R, scale.neg(), konst)
		case smt.OpNeg:
			return s.linearize(t.L, scale.neg(), konst)
		case smt.OpMul:
			if k, ok := constRat(t.L); ok {
				return s.linearize(t.R, scale.mul(k), konst)
			}
			if k, ok := constRat(t.R); ok {
				return s.linearize(t.L, scale.mul(k), konst)
			}
		}
	}
	return false
}

func constRat(e smt.Expr) (rat, bool) {
	switch t := e.(type) {
	case smt.IntConst:
		return ratInt(t.V), true
	case smt.RealConst:
		return ratBig(t.V), true
	}
	return rat{}, false
}

// flushRow empties the accumulator into s.row, sorted by variable id.
func (s *session) flushRow() []term {
	slices.Sort(s.accIDs)
	s.row = s.row[:0]
	for _, x := range s.accIDs {
		if co := s.acc.val[x]; co.sign() != 0 {
			s.row = append(s.row, term{x: x, co: co})
		}
		s.acc.has[x] = false
	}
	s.accIDs = s.accIDs[:0]
	return s.row
}

// nnfNum atomizes a numeric comparison into a canonical linear atom.
func (s *session) nnfNum(c *smt.Cmp, pos bool) (int32, bool) {
	konst := ratZero
	ok := s.linearize(c.L, ratOne, &konst) && s.linearize(c.R, ratOne.neg(), &konst)
	terms := s.flushRow() // also on failure: the accumulator must end up empty
	if !ok {
		return 0, false
	}
	// Now: Σ terms + konst  op  0  ⇔  Σ terms  op  -konst.
	rhs := konst.neg()
	lc := linCon{op: opLE}
	neg, flip := false, false
	switch c.Op {
	case smt.LT:
		lc.op = opLT
	case smt.GT: // Σ > rhs ⇔ -Σ < -rhs
		lc.op, flip = opLT, true
	case smt.GE:
		flip = true
	case smt.EQ, smt.NE:
		lc.op, neg = opEQ, c.Op == smt.NE
	}
	if len(terms) == 0 {
		if flip {
			rhs = rhs.neg()
		}
		return s.node(pnode{kind: pConst, b: (lc.op.holds(-rhs.sign()) != neg) == pos}), true
	}
	// Canonical form: the smallest variable's coefficient is ±1, and +1 in
	// an equality.
	lead := terms[0].co
	k := lead.inv()
	if (k.sign() < 0) != (flip || (lc.op == opEQ && lead.sign() < 0)) {
		k = k.neg() // k = ±1/|lead|, negative when the row changes sign
	}
	if !k.equal(ratOne) {
		for i := range terms {
			terms[i].co = terms[i].co.mul(k)
		}
		rhs = rhs.mul(k)
	}
	lc.terms, lc.rhs = terms, rhs
	id := s.internLin(lc)
	return s.litNode(mkLit(id, neg == pos)), true
}

// ackermann adds congruence clauses for every pair of select atoms over
// the same root array: (k1 = k2) → (s1 ↔ s2).
func (s *session) ackermann(d *cdcl) {
	for i := 0; i < len(s.selAtoms); i++ {
		for j := i + 1; j < len(s.selAtoms); j++ {
			ai, aj := s.atoms[s.selAtoms[i]], s.atoms[s.selAtoms[j]]
			if ai.root != aj.root {
				continue
			}
			si := mkLit(s.selAtoms[i], false)
			sj := mkLit(s.selAtoms[j], false)
			if smt.IsConst(ai.key) && smt.IsConst(aj.key) {
				if !smt.Eval(ai.key, nil).Equal(smt.Eval(aj.key, nil)) {
					continue // provably distinct keys: independent
				}
				d.addInput(si.negate(), sj)
				d.addInput(si, sj.negate())
				continue
			}
			n, ok := s.nnf(smt.Eq(ai.key, aj.key), true)
			if !ok || s.nodes[n].kind != pLit {
				continue
			}
			eq := s.nodes[n].lit
			d.addInput(eq.negate(), si.negate(), sj)
			d.addInput(eq.negate(), si, sj.negate())
		}
	}
}

// ---------------------------------------------------------------------------
// Theory integration

// theoryCheck validates the (possibly partial) CDCL assignment against
// the arithmetic and string theories. On inconsistency it returns a
// shrunken unsat core of atom ids; on full consistency it constructs a
// model.
func (s *session) theoryCheck(d *cdcl) (*smt.Model, linStatus, []int) {
	s.linIDs, s.strIDs = s.linIDs[:0], s.strIDs[:0]
	for id := range s.atoms {
		if d.assign[id] == 0 {
			continue
		}
		switch s.atoms[id].kind {
		case aLin:
			s.linIDs = append(s.linIDs, id)
		case aStr:
			s.strIDs = append(s.strIDs, id)
		}
	}
	strCons := func(ids []int) []strConstraint {
		s.strCons = s.strCons[:0]
		for _, id := range ids {
			info := &s.atoms[id]
			s.strCons = append(s.strCons, strConstraint{l: info.l, r: info.r, eq: d.assign[id] == 1})
		}
		return s.strCons
	}
	// rows gathers the assigned atoms' rows, disequalities apart, into the
	// session's two lists; the arithmetic solver copies what it rewrites.
	rows := func(ids []int) (rest, nes []linCon) {
		s.rest, s.nes = s.rest[:0], s.nes[:0]
		for _, id := range ids {
			pair := &s.linRows[s.atoms[id].row]
			c := &pair[0]
			if d.assign[id] != 1 {
				c = &pair[1]
			}
			if c.op == opNE {
				s.nes = append(s.nes, *c)
			} else {
				s.rest = append(s.rest, *c)
			}
		}
		return s.rest, s.nes
	}

	var strAsn map[string]string
	if len(s.strIDs) > 0 {
		var ok bool
		if strAsn, ok = solveStrings(strCons(s.strIDs)); !ok {
			core := s.shrinkCore(s.strIDs, 192, func(ids []int) bool {
				_, ok := solveStrings(strCons(ids))
				return !ok
			})
			return nil, linUNSAT, core
		}
	}
	rest, nes := rows(s.linIDs)
	if !s.haveLast || !allHold(rest, &s.lastAsn) || !allHold(nes, &s.lastAsn) {
		switch s.lin.solve(rest, nes) {
		case linUNSAT:
			// Shrink the core against the rational relaxation (drop NE
			// constraints, skip branch-and-bound): relaxation-UNSAT
			// implies full-UNSAT, and the relaxed test is much cheaper.
			relaxedUnsat := func(ids []int) bool {
				rest, _ := rows(ids)
				return s.lin.solveRational(rest) == linUNSAT
			}
			if relaxedUnsat(s.linIDs) {
				return nil, linUNSAT, s.shrinkCore(s.linIDs, 192, relaxedUnsat)
			}
			// The conflict needs NE or integrality reasoning; shrink
			// with the full check under a tighter size cap.
			return nil, linUNSAT, s.shrinkCore(s.linIDs, 24, func(ids []int) bool {
				return s.lin.solve(rows(ids)) == linUNSAT
			})
		case linUNKNOWN:
			return nil, linUNKNOWN, nil
		}
		s.lastAsn, s.lin.asn, s.haveLast = s.lin.asn, s.lastAsn, true
	}
	if !d.fullyAssigned() {
		// Partial assignment: consistent so far; no model needed yet.
		return nil, linSAT, nil
	}

	m := smt.NewModel()
	for x, xv := range s.vars {
		if !s.lastAsn.has[x] {
			continue
		}
		v := s.lastAsn.val[x]
		if !s.lin.isInt[x] {
			m.Vars[xv.Name] = smt.RealValue(v.big())
		} else if i, ok := v.int64(); ok {
			m.Vars[xv.Name] = smt.IntValue(i)
		} else {
			// Fractional, or an integer no smt.Value can hold.
			return nil, linUNKNOWN, nil
		}
	}
	for x, v := range strAsn {
		m.Vars[x] = smt.StrValue(v)
	}
	for id, info := range s.atoms {
		if info.kind != aBool || d.assign[id] == 0 {
			continue
		}
		m.Vars[info.name] = smt.BoolValue(d.assign[id] == 1)
	}
	for _, id := range s.selAtoms {
		if d.assign[id] != 1 {
			continue // absent keys default to false
		}
		info := s.atoms[id]
		kv := smt.Eval(info.key, m)
		ent := m.Arrays[info.root]
		if ent == nil {
			ent = map[string]bool{}
			m.Arrays[info.root] = ent
		}
		ent[kv.String()] = true
	}
	return m, linSAT, nil
}

// preferredPhase proposes a decision polarity: the value the cached
// arithmetic model already satisfies (keeping most decisions theory-
// consistent so the expensive Fourier–Motzkin path stays cold), falling
// back to the engine's saved phase from before the last backjump.
func (s *session) preferredPhase(d *cdcl, v int) bool {
	if v < len(s.atoms) {
		info := &s.atoms[v]
		if info.kind == aLin && s.haveLast {
			return s.linRows[info.row][0].holds(&s.lastAsn)
		}
	}
	return d.savedPhase(v) == 1
}

// shrinkCore minimizes an inconsistent atom set by chunked deletion:
// first drop whole halves while the remainder stays inconsistent, then
// refine element-wise. Small cores become strong learned clauses. Sets
// larger than maxLen are returned unshrunk, bounding the number of
// (possibly expensive) stillUnsat probes. The core is valid until the
// next shrinkCore.
func (s *session) shrinkCore(ids []int, maxLen int, stillUnsat func([]int) bool) []int {
	if len(ids) > maxLen {
		return ids
	}
	core := append(s.core[:0], ids...)
	// Chunked pass: try dropping progressively smaller chunks.
	for chunk := len(core) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start+chunk <= len(core) && len(core) > 1; {
			cand := append(append(s.cand[:0], core[:start]...), core[start+chunk:]...)
			if stillUnsat(cand) {
				core, s.cand = cand, core
			} else {
				s.cand = cand
				start += chunk
			}
		}
	}
	s.core = core
	return core
}

// ---------------------------------------------------------------------------
// Array expansion

// expandSelects rewrites reads over store chains into Boolean structure so
// only root-array reads remain: read(write(A,k,v), key) becomes
// ite(key = k, v, read(A, key)).
func expandSelects(e smt.Expr) smt.Expr {
	switch t := e.(type) {
	case *smt.Select:
		return expandChain(t.Arr, t.Key)
	case smt.Not:
		return smt.Negate(expandSelects(t.X))
	case *smt.NAry:
		xs := make([]smt.Expr, len(t.Xs))
		for i, x := range t.Xs {
			xs[i] = expandSelects(x)
		}
		if t.Conj {
			return smt.And(xs...)
		}
		return smt.Or(xs...)
	case *smt.Cmp:
		// Comparison operands are Int/Real/String terms and contain no
		// selects in the supported fragment.
		return t
	}
	return e
}

func expandChain(a *smt.Array, key smt.Expr) smt.Expr {
	if a.Parent == nil {
		return smt.Read(a, key)
	}
	rest := expandChain(a.Parent, key)
	hit := smt.Eq(key, a.StoreKey)
	if a.StoreVal {
		return smt.Or(hit, smt.And(smt.Negate(hit), rest))
	}
	return smt.And(smt.Negate(hit), rest)
}
