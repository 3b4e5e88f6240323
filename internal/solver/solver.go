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
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/big"
	"sort"
	"time"

	"weseer/internal/obs"
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

// Limits bound solver work; zero values select defaults.
type Limits struct {
	// MaxTheoryCalls caps CDCL(T) theory checks before giving up UNKNOWN.
	MaxTheoryCalls int
	// FM holds the arithmetic-theory limits.
	FM fmLimits

	// Obs, when non-nil, receives a per-call span and engine counters
	// (observational only — it never affects the verdict). ObsTID is the
	// logical thread the span is attributed to (the analyzer passes its
	// phase-3 worker index).
	Obs    *obs.Observer
	ObsTID int
}

func (l *Limits) setDefaults() {
	if l.MaxTheoryCalls == 0 {
		l.MaxTheoryCalls = 20000
	}
	if l.FM.maxConstraints == 0 {
		l.FM = defaultFMLimits()
	}
}

// Solve decides f.
func Solve(f smt.Expr) Result { return SolveLimits(f, Limits{}) }

// SolveLimits decides f under explicit resource limits.
func SolveLimits(f smt.Expr, lim Limits) Result {
	return SolveCtx(context.Background(), f, lim)
}

// SolveCtx decides f under explicit resource limits, honoring ctx
// cancellation: the CDCL(T) loop and the Fourier–Motzkin elimination
// rounds poll the context and abandon the search promptly once it is
// done. A canceled call returns UNKNOWN; callers that need to tell
// cancellation apart from a resource-limit UNKNOWN check ctx.Err().
func SolveCtx(ctx context.Context, f smt.Expr, lim Limits) Result {
	if lim.Obs == nil {
		return solveCtx(ctx, f, lim)
	}
	o := lim.Obs
	sp := o.StartSpan(lim.ObsTID, "solve")
	start := time.Now()
	res := solveCtx(ctx, f, lim)
	dur := time.Since(start)
	sp.End(obs.String("status", res.Status.String()),
		obs.Int("decisions", res.Stats.Decisions),
		obs.Int("conflicts", res.Stats.Conflicts),
		obs.Int("theory_calls", res.Stats.TheoryCalls))
	o.ObserveSolve(obs.SolveObservation{
		Duration:       dur,
		Status:         res.Status.String(),
		Decisions:      res.Stats.Decisions,
		Conflicts:      res.Stats.Conflicts,
		Propagations:   res.Stats.Propagations,
		LearnedClauses: res.Stats.LearnedClauses,
		Backjumps:      res.Stats.Backjumps,
		TheoryCalls:    res.Stats.TheoryCalls,
	})
	return res
}

// solveCtx is the uninstrumented body of SolveCtx.
func solveCtx(ctx context.Context, f smt.Expr, lim Limits) Result {
	lim.setDefaults()
	s := &session{
		lim:        lim,
		boolAtoms:  map[string]int{},
		strAtoms:   map[strPair]int{},
		selAtomIdx: map[selKey]int{},
		linBuckets: map[uint64][]int{},
		intVars:    map[string]bool{},
	}
	if ctx != nil && ctx.Done() != nil {
		stop := func() bool { return ctx.Err() != nil }
		s.stop = stop
		s.lim.FM.stop = stop
	}
	f = smt.Simplify(f)
	for name, srt := range smt.VarSet(f) {
		if srt == smt.SortInt {
			s.intVars[name] = true
		}
	}
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
	s.ackermann()

	b := &cnfBuilder{numVars: len(s.atoms)}
	b.clauses = append(b.clauses, s.extraClauses...)
	rootLit, isConst, constVal := b.tseitin(root)
	if isConst {
		if constVal {
			return Result{Status: SAT, Model: smt.NewModel(), Stats: s.stats}
		}
		return Result{Status: UNSAT, Stats: s.stats}
	}
	b.addClause(rootLit)
	s.stats.Atoms = len(s.atoms)
	s.stats.Clauses = len(b.clauses)

	d := newCDCL(b.numVars, b.clauses, &s.stats)
	theory := make([]bool, b.numVars)
	for i := range s.atoms {
		k := s.atoms[i].kind
		theory[i] = k == aLin || k == aStr
	}
	d.theoryAtom = theory

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
	for s.stats.TheoryCalls < lim.MaxTheoryCalls {
		if s.stop != nil && s.stop() {
			return Result{Status: UNKNOWN, Stats: s.stats}
		}
		if confl := d.propagate(); confl != nil {
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
			cl := make([]lit, 0, len(core))
			for _, id := range core {
				cl = append(cl, mkLit(id, d.assign[id] == 1))
			}
			s.stats.Conflicts++
			if !d.learnClause(cl) {
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
			cl := make([]lit, 0, len(s.atoms))
			for id := range s.atoms {
				cl = append(cl, mkLit(id, d.assign[id] == 1))
			}
			if !d.learnClause(cl) {
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
	lin  *linCon // for aLin; op ∈ {opLE, opLT, opEQ}
	// linNeg is the prebuilt negation of lin, so theory checks hand the
	// arithmetic solver shared immutable constraints instead of cloning
	// and negating per call.
	linNeg *linCon
	l, r   strTerm // for aStr (always an equality atom)
	name   string  // for aBool
	root   string  // for aSel
	key    smt.Expr
}

// strPair interns string-equality atoms by their canonically ordered
// operand pair; selKey interns select atoms by root array and the key
// expression's injective rendering (smt.TypedString), so structurally
// equal keys share one atom however many copies the formula holds.
type strPair struct{ l, r strTerm }

type selKey struct{ root, key string }

type session struct {
	lim   Limits
	atoms []atomInfo
	// Atom-interning indexes, one per atom kind; they live and die with
	// the session.
	boolAtoms  map[string]int
	strAtoms   map[strPair]int
	selAtomIdx map[selKey]int
	// linBuckets indexes linear atoms by a 64-bit structural fingerprint;
	// candidates within a bucket are compared coefficient-wise.
	linBuckets map[uint64][]int

	intVars      map[string]bool
	selAtoms     []int // indices of aSel atoms
	extraClauses [][]lit
	stats        Stats
	// stop is polled inside the CDCL(T) loop; non-nil only for SolveCtx
	// calls whose context can actually be canceled.
	stop func() bool
	// lastAsn caches the most recent satisfying arithmetic assignment;
	// successive theory checks mostly extend a consistent partial
	// assignment, so re-evaluating the cached model avoids a full
	// Fourier–Motzkin run on the (common) still-satisfied path.
	lastAsn map[string]*big.Rat
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

func (s *session) internLin(lc *linCon) int {
	h := linFingerprint(lc)
	for _, id := range s.linBuckets[h] {
		if linConEqual(s.atoms[id].lin, lc) {
			return id
		}
	}
	neg := negLinCon(lc)
	lc.buildFast()
	neg.buildFast()
	id := s.addAtom(atomInfo{kind: aLin, lin: lc, linNeg: neg})
	s.linBuckets[h] = append(s.linBuckets[h], id)
	return id
}

// nnf converts e (under polarity pos) into a pnode tree, atomizing leaves.
// It returns ok=false when e falls outside the solvable fragment.
func (s *session) nnf(e smt.Expr, pos bool) (*pnode, bool) {
	switch t := e.(type) {
	case smt.BoolConst:
		return &pnode{kind: pConst, b: t.B == pos}, true
	case smt.Var:
		if t.S != smt.SortBool {
			return nil, false
		}
		id := s.internBool(t.Name)
		return &pnode{kind: pLit, lit: mkLit(id, !pos)}, true
	case smt.Not:
		return s.nnf(t.X, !pos)
	case *smt.NAry:
		kind := pAnd
		if t.Conj != pos {
			kind = pOr
		}
		n := &pnode{kind: kind}
		for _, x := range t.Xs {
			k, ok := s.nnf(x, pos)
			if !ok {
				return nil, false
			}
			n.kids = append(n.kids, k)
		}
		return n, true
	case *smt.Select:
		if t.Arr.Parent != nil {
			// expandSelects should have removed non-root selects.
			return nil, false
		}
		id := s.internSel(t.Arr.ID, t.Key)
		return &pnode{kind: pLit, lit: mkLit(id, !pos)}, true
	case *smt.Cmp:
		return s.nnfCmp(t, pos)
	}
	return nil, false
}

func (s *session) nnfCmp(c *smt.Cmp, pos bool) (*pnode, bool) {
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
			return nil, false
		}
		// Canonical order for interning.
		a, b := lt, rt
		if b.key() < a.key() {
			a, b = b, a
		}
		id := s.internStr(a, b)
		neg := c.Op == smt.NE
		return &pnode{kind: pLit, lit: mkLit(id, neg == pos)}, true
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

// nnfNum atomizes a numeric comparison into a canonical linear atom.
func (s *session) nnfNum(c *smt.Cmp, pos bool) (*pnode, bool) {
	coeffs := map[string]*big.Rat{}
	konst := new(big.Rat)
	if !linearize(c.L, big.NewRat(1, 1), coeffs, konst) {
		return nil, false
	}
	if !linearize(c.R, big.NewRat(-1, 1), coeffs, konst) {
		return nil, false
	}
	// Now: Σ coeffs·x + konst  op  0  ⇔  Σ coeffs·x  op  -konst.
	rhs := new(big.Rat).Neg(konst)
	op := c.Op
	neg := false
	switch op {
	case smt.GT: // Σ > rhs ⇔ -Σ < -rhs
		negateLin(coeffs, rhs)
		op = smt.LT
	case smt.GE:
		negateLin(coeffs, rhs)
		op = smt.LE
	case smt.NE:
		op = smt.EQ
		neg = true
	}
	if len(coeffs) == 0 {
		zero := new(big.Rat)
		var truth bool
		switch op {
		case smt.LT:
			truth = zero.Cmp(rhs) < 0
		case smt.LE:
			truth = zero.Cmp(rhs) <= 0
		case smt.EQ:
			truth = zero.Cmp(rhs) == 0
		}
		return &pnode{kind: pConst, b: (truth != neg) == pos}, true
	}
	lc := newLinCon(opLE)
	switch op {
	case smt.LT:
		lc.op = opLT
	case smt.EQ:
		lc.op = opEQ
		// Canonical sign for equalities: coefficient of the smallest
		// variable name is positive.
		x := pickVar(coeffs)
		if coeffs[x].Sign() < 0 {
			negateLin(coeffs, rhs)
		}
	}
	// Scale so the smallest variable's coefficient has magnitude 1.
	x := pickVar(coeffs)
	scale := new(big.Rat).Abs(coeffs[x])
	inv := new(big.Rat).Inv(scale)
	for _, v := range coeffs {
		v.Mul(v, inv)
	}
	rhs.Mul(rhs, inv)
	lc.coeffs = coeffs
	lc.rhs = rhs
	id := s.internLin(lc)
	return &pnode{kind: pLit, lit: mkLit(id, neg == pos)}, true
}

func negateLin(coeffs map[string]*big.Rat, rhs *big.Rat) {
	for _, v := range coeffs {
		v.Neg(v)
	}
	rhs.Neg(rhs)
}

// negLinCon returns the constraint satisfied exactly when c is violated.
func negLinCon(c *linCon) *linCon {
	n := c.clone()
	switch n.op {
	case opLE: // ¬(e ≤ b) ⇔ -e < -b
		negateLin(n.coeffs, n.rhs)
		n.op = opLT
	case opLT: // ¬(e < b) ⇔ -e ≤ -b
		negateLin(n.coeffs, n.rhs)
		n.op = opLE
	case opEQ:
		n.op = opNE
	}
	return n
}

// linFingerprint hashes the canonical content of a linear constraint —
// sorted (name, coefficient) pairs, operator, right-hand side — streaming
// directly into the hash instead of building a key string.
func linFingerprint(c *linCon) uint64 {
	names := make([]string, 0, len(c.coeffs))
	for x := range c.coeffs {
		names = append(names, x)
	}
	sort.Strings(names)
	h := fnv.New64a()
	h.Write([]byte{byte(c.op)})
	io.WriteString(h, c.rhs.RatString())
	for _, x := range names {
		io.WriteString(h, "|")
		io.WriteString(h, x)
		io.WriteString(h, "*")
		io.WriteString(h, c.coeffs[x].RatString())
	}
	return h.Sum64()
}

// linConEqual reports structural equality of two constraints.
func linConEqual(a, b *linCon) bool {
	if a.op != b.op || len(a.coeffs) != len(b.coeffs) || a.rhs.Cmp(b.rhs) != 0 {
		return false
	}
	for x, av := range a.coeffs {
		bv, ok := b.coeffs[x]
		if !ok || av.Cmp(bv) != 0 {
			return false
		}
	}
	return true
}

// ackermann adds congruence clauses for every pair of select atoms over
// the same root array: (k1 = k2) → (s1 ↔ s2).
func (s *session) ackermann() {
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
				s.extraClauses = append(s.extraClauses,
					[]lit{si.negate(), sj}, []lit{si, sj.negate()})
				continue
			}
			eqNode, ok := s.nnf(smt.Eq(ai.key, aj.key), true)
			if !ok || eqNode.kind != pLit {
				continue
			}
			eq := eqNode.lit
			s.extraClauses = append(s.extraClauses,
				[]lit{eq.negate(), si.negate(), sj},
				[]lit{eq.negate(), si, sj.negate()})
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
	var linIDs, strIDs []int
	for id := range s.atoms {
		if d.assign[id] == 0 {
			continue
		}
		switch s.atoms[id].kind {
		case aLin:
			linIDs = append(linIDs, id)
		case aStr:
			strIDs = append(strIDs, id)
		}
	}
	strCons := func(ids []int) []strConstraint {
		out := make([]strConstraint, 0, len(ids))
		for _, id := range ids {
			info := s.atoms[id]
			out = append(out, strConstraint{l: info.l, r: info.r, eq: d.assign[id] == 1})
		}
		return out
	}
	// The arithmetic solvers never mutate their input constraints (they
	// clone internally before substitution), so assignments share the
	// atoms' prebuilt positive/negated constraints directly.
	linCons := func(ids []int) []*linCon {
		out := make([]*linCon, 0, len(ids))
		for _, id := range ids {
			info := &s.atoms[id]
			if d.assign[id] == 1 {
				out = append(out, info.lin)
			} else {
				out = append(out, info.linNeg)
			}
		}
		return out
	}

	strAsn, ok := solveStrings(strCons(strIDs))
	if !ok {
		core := shrinkCore(strIDs, func(ids []int) bool {
			_, ok := solveStrings(strCons(ids))
			return !ok
		})
		return nil, linUNSAT, core
	}
	cons := linCons(linIDs)
	var numAsn map[string]*big.Rat
	if s.lastAsn != nil && allHold(cons, s.lastAsn) {
		numAsn = s.lastAsn
	} else {
		var st linStatus
		numAsn, st = solveLinear(cons, s.intVars, s.lim.FM)
		if st == linUNSAT {
			// Shrink the core against the rational relaxation (drop NE
			// constraints, skip branch-and-bound): relaxation-UNSAT
			// implies full-UNSAT, and the relaxed test is much cheaper.
			relaxedUnsat := func(ids []int) bool {
				var keep []*linCon
				for _, c := range linCons(ids) {
					if c.op != opNE {
						keep = append(keep, c)
					}
				}
				_, st := solveRational(keep, s.lim.FM)
				return st == linUNSAT
			}
			var core []int
			if relaxedUnsat(linIDs) {
				core = shrinkCore(linIDs, relaxedUnsat)
			} else {
				// The conflict needs NE or integrality reasoning; shrink
				// with the full check under a tighter size cap.
				core = shrinkCoreCapped(linIDs, 24, func(ids []int) bool {
					_, st := solveLinear(linCons(ids), s.intVars, s.lim.FM)
					return st == linUNSAT
				})
			}
			return nil, linUNSAT, core
		}
		if st == linUNKNOWN {
			return nil, linUNKNOWN, nil
		}
		s.lastAsn = numAsn
	}
	if !d.fullyAssigned() {
		// Partial assignment: consistent so far; no model needed yet.
		return nil, linSAT, nil
	}

	m := smt.NewModel()
	for x, v := range numAsn {
		if s.intVars[x] {
			if !v.IsInt() {
				return nil, linUNKNOWN, nil
			}
			m.Vars[x] = smt.IntValue(v.Num().Int64())
		} else {
			m.Vars[x] = smt.RealValue(v)
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
		if info.kind == aLin && s.lastAsn != nil {
			return info.lin.holds(s.lastAsn)
		}
	}
	return d.savedPhase(v) == 1
}

// shrinkCore minimizes an inconsistent atom set by chunked deletion:
// first drop whole halves while the remainder stays inconsistent, then
// refine element-wise. Small cores become strong learned clauses.
func shrinkCore(ids []int, stillUnsat func([]int) bool) []int {
	return shrinkCoreCapped(ids, 192, stillUnsat)
}

// shrinkCoreCapped is shrinkCore with an explicit size cap: sets larger
// than maxLen are returned unshrunk, bounding the number of (possibly
// expensive) stillUnsat probes.
func shrinkCoreCapped(ids []int, maxLen int, stillUnsat func([]int) bool) []int {
	if len(ids) > maxLen {
		return ids
	}
	core := append([]int(nil), ids...)
	// Chunked pass: try dropping progressively smaller chunks.
	for chunk := len(core) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start+chunk <= len(core) && len(core) > 1; {
			cand := make([]int, 0, len(core)-chunk)
			cand = append(cand, core[:start]...)
			cand = append(cand, core[start+chunk:]...)
			if stillUnsat(cand) {
				core = cand
			} else {
				start += chunk
			}
		}
	}
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
