package solver

// This file implements the linear-arithmetic theory solver: Fourier–Motzkin
// elimination over exact rationals with Gaussian pre-substitution of
// equalities, branching over disequalities, and branch-and-bound for
// integer-sorted variables. It both decides satisfiability and produces a
// satisfying assignment for model construction.
//
// Variables are the session's dense ids (sorted-name order, so "smallest
// id" is the "smallest name" every tie-break is defined by), constraints
// are sparse rows over rat, and one check works in scratch the linSolver
// owns: nothing here allocates unless a value outgrows int64 or the search
// has to branch.

type linOp uint8

const (
	opLE linOp = iota
	opLT
	opEQ
	opNE
)

// holds reports whether lhs op rhs, given cmp = sign(lhs − rhs).
func (op linOp) holds(cmp int) bool {
	switch op {
	case opLE:
		return cmp <= 0
	case opLT:
		return cmp < 0
	case opEQ:
		return cmp == 0
	case opNE:
		return cmp != 0
	}
	return false
}

// term is coefficient·variable.
type term struct {
	x  int32
	co rat
}

// linCon is the constraint Σ terms op rhs. terms is sorted by variable id,
// holds no zero coefficient and is never written after the row is built:
// rows are copied by value and share it.
type linCon struct {
	terms []term
	rhs   rat
	op    linOp
}

// coeff returns the coefficient of x in c.
func (c *linCon) coeff(x int32) (rat, bool) {
	for _, t := range c.terms {
		if t.x >= x {
			return t.co, t.x == x
		}
	}
	return rat{}, false
}

func (c *linCon) equal(o *linCon) bool {
	if c.op != o.op || len(c.terms) != len(o.terms) || !c.rhs.equal(o.rhs) {
		return false
	}
	for i, t := range c.terms {
		if u := o.terms[i]; t.x != u.x || !t.co.equal(u.co) {
			return false
		}
	}
	return true
}

// hash fingerprints the row's content for atom interning.
func (c *linCon) hash() uint64 {
	h := c.rhs.hash(hashWord(14695981039346656037, uint64(c.op)))
	for _, t := range c.terms {
		h = t.co.hash(hashWord(h, uint64(t.x)))
	}
	return h
}

// negTerms appends −terms to dst.
func negTerms(dst, terms []term) []term {
	for _, t := range terms {
		dst = append(dst, term{x: t.x, co: t.co.neg()})
	}
	return dst
}

// assignment maps variable ids to values; absent variables count as 0.
type assignment struct {
	val []rat
	has []bool
}

// reset empties a for variables [0, nvars).
func (a *assignment) reset(nvars int) { a.val, a.has = resized(a.val, nvars), resized(a.has, nvars) }

func (a *assignment) set(x int32, v rat) { a.val[x], a.has[x] = v, true }

// eval returns the left-hand side's value under the assignment.
func (c *linCon) eval(a *assignment) rat {
	sum := ratZero
	for _, t := range c.terms {
		if a.has[t.x] {
			sum = sum.add(t.co.mul(a.val[t.x]))
		}
	}
	return sum
}

// holds reports whether the constraint is satisfied under the assignment.
func (c *linCon) holds(a *assignment) bool { return c.op.holds(c.eval(a).cmp(c.rhs)) }

// constHolds decides a row with no terms left.
func constHolds(c *linCon) bool { return c.op.holds(-c.rhs.sign()) }

func allHold(cons []linCon, a *assignment) bool {
	for i := range cons {
		if !cons[i].holds(a) {
			return false
		}
	}
	return true
}

// linStatus is the outcome of a theory check.
type linStatus uint8

const (
	linSAT linStatus = iota
	linUNSAT
	linUNKNOWN
)

// fmLimits bound the work of one theory call so pathological inputs yield
// UNKNOWN instead of hanging (the paper treats Z3 timeouts the same way).
type fmLimits struct {
	maxConstraints int
	maxNEBranch    int
	maxIntDepth    int
	// stop is polled between elimination rounds and branch-and-bound
	// nodes; non-nil only under a cancelable context (see Solve).
	stop func() bool
}

func defaultFMLimits() fmLimits {
	return fmLimits{maxConstraints: 200000, maxNEBranch: 24, maxIntDepth: 64}
}

// elimRecord remembers how a variable was eliminated so its value can be
// recovered by back-substitution.
type elimRecord struct {
	x     int32
	gauss bool
	expr  linCon // gauss: x = Σ terms + rhs
	// Fourier–Motzkin: the constraints that involved x are
	// linSolver.bounds[lo:hi].
	lo, hi int
}

// linSolver decides conjunctions of rows over variables [0, len(isInt)).
// A linSAT answer leaves its assignment in asn until the next solve. One
// serves formula after formula: reset readies it for the next.
type linSolver struct {
	isInt []bool // variables that must take integral values
	lim   fmLimits
	asn   assignment

	// Scratch of one solveRational run, reset at its start. terms is the
	// arena derived rows are built in; work and next are the current and
	// the next round's constraint lists; bounds keeps every eliminated
	// variable's constraints for back-substitution.
	terms      []term
	work, next []linCon
	bounds     []linCon
	elims      []elimRecord
	count      []int32 // per-variable occurrence counts of pickElimVar
}

// reset readies ls for variables [0, len(isInt)) under lim.
func (ls *linSolver) reset(isInt []bool, lim fmLimits) {
	ls.isInt, ls.lim, ls.count = isInt, lim, resized(ls.count, len(isInt))
	ls.asn.reset(len(isInt))
}

// solve decides rest ∧ nes, where nes are the disequalities.
func (ls *linSolver) solve(rest, nes []linCon) linStatus {
	return ls.solveNE(rest, nes, ls.lim.maxNEBranch)
}

// solveNE handles disequalities lazily: solve the relaxation without
// them, and only case-split a disequality the relaxed model violates.
// Executions rarely pin values onto their excluded points, so this
// typically costs zero splits instead of 2^|NE|.
func (ls *linSolver) solveNE(rest, nes []linCon, neBudget int) linStatus {
	if st := ls.solveIntBB(rest, ls.lim.maxIntDepth); st != linSAT {
		return st
	}
	violated := -1
	for i := range nes {
		if !nes[i].holds(&ls.asn) {
			violated = i
			break
		}
	}
	if violated < 0 {
		return linSAT
	}
	if neBudget <= 0 {
		return linUNKNOWN
	}
	ne := nes[violated]
	others := append(append(make([]linCon, 0, len(nes)-1), nes[:violated]...), nes[violated+1:]...)
	unknown := false
	for _, b := range [2]linCon{
		{terms: ne.terms, rhs: ne.rhs, op: opLT},                      // lhs < rhs
		{terms: negTerms(nil, ne.terms), rhs: ne.rhs.neg(), op: opLT}, // lhs > rhs
	} {
		switch ls.solveNE(appendRow(rest, b), others, neBudget-1) {
		case linSAT:
			return linSAT
		case linUNKNOWN:
			unknown = true
		}
	}
	if unknown {
		return linUNKNOWN
	}
	return linUNSAT
}

// appendRow returns a fresh cons ∪ {c}; branches must not share storage.
func appendRow(cons []linCon, c linCon) []linCon {
	return append(append(make([]linCon, 0, len(cons)+1), cons...), c)
}

// solveIntBB solves the rational relaxation and repairs fractional values
// of integer variables by branch and bound.
func (ls *linSolver) solveIntBB(cons []linCon, depth int) linStatus {
	if ls.lim.stop != nil && ls.lim.stop() {
		return linUNKNOWN
	}
	if st := ls.solveRational(cons); st != linSAT {
		return st
	}
	frac := int32(-1)
	for x, isInt := range ls.isInt {
		if isInt && ls.asn.has[x] && !ls.asn.val[x].isInt() {
			frac = int32(x)
			break
		}
	}
	if frac < 0 {
		return linSAT
	}
	if depth <= 0 {
		return linUNKNOWN
	}
	floor := ls.asn.val[frac].floor()
	unknown := false
	for _, b := range [2]linCon{
		{terms: []term{{x: frac, co: ratOne}}, rhs: floor, op: opLE},                         // x ≤ ⌊v⌋
		{terms: []term{{x: frac, co: ratOne.neg()}}, rhs: floor.add(ratOne).neg(), op: opLE}, // −x ≤ −(⌊v⌋+1)
	} {
		switch ls.solveIntBB(appendRow(cons, b), depth-1) {
		case linSAT:
			return linSAT
		case linUNKNOWN:
			unknown = true
		}
	}
	if unknown {
		return linUNKNOWN
	}
	return linUNSAT
}

// solveRational runs Gaussian + Fourier–Motzkin elimination over Q.
func (ls *linSolver) solveRational(cons []linCon) linStatus {
	ls.terms, ls.bounds, ls.elims = ls.terms[:0], ls.bounds[:0], ls.elims[:0]
	ls.work = append(ls.work[:0], cons...)

	// Phase 1: substitute away equalities.
	for {
		eqIdx := -1
		for i := range ls.work {
			if ls.work[i].op == opEQ && len(ls.work[i].terms) > 0 {
				eqIdx = i
				break
			}
		}
		if eqIdx < 0 {
			break
		}
		// a·x + Σ co·y = rhs  →  x = rhs/a − Σ (co/a)·y, x the smallest id.
		eq := ls.work[eqIdx]
		x, inv := eq.terms[0].x, eq.terms[0].co.inv()
		start := len(ls.terms)
		for _, t := range eq.terms[1:] {
			ls.terms = append(ls.terms, term{x: t.x, co: t.co.mul(inv).neg()})
		}
		expr := linCon{terms: ls.terms[start:len(ls.terms):len(ls.terms)], rhs: eq.rhs.mul(inv), op: opEQ}
		ls.elims = append(ls.elims, elimRecord{x: x, gauss: true, expr: expr})
		ls.work = append(ls.work[:eqIdx], ls.work[eqIdx+1:]...)
		for i := range ls.work {
			ls.substVar(&ls.work[i], x, &expr)
		}
	}

	// Phase 2: Fourier–Motzkin on inequalities.
	for {
		if ls.lim.stop != nil && ls.lim.stop() {
			return linUNKNOWN
		}
		x := ls.pickElimVar()
		if x < 0 {
			break
		}
		// a·x + e op b bounds x from below when a < 0, from above when a > 0.
		lo := len(ls.bounds)
		ls.next = ls.next[:0]
		for i := range ls.work {
			if a, ok := ls.work[i].coeff(x); !ok {
				ls.next = append(ls.next, ls.work[i])
			} else if a.sign() < 0 {
				ls.bounds = append(ls.bounds, ls.work[i])
			}
		}
		mid := len(ls.bounds)
		for i := range ls.work {
			if a, ok := ls.work[i].coeff(x); ok && a.sign() > 0 {
				ls.bounds = append(ls.bounds, ls.work[i])
			}
		}
		hi := len(ls.bounds)
		for i := lo; i < mid; i++ {
			for j := mid; j < hi; j++ {
				nc := ls.combineFM(&ls.bounds[i], &ls.bounds[j], x)
				if len(nc.terms) > 0 {
					ls.next = append(ls.next, nc)
				} else if !constHolds(&nc) {
					return linUNSAT
				}
			}
		}
		ls.work, ls.next = ls.next, ls.work
		if len(ls.work) > ls.lim.maxConstraints {
			return linUNKNOWN
		}
		ls.elims = append(ls.elims, elimRecord{x: x, lo: lo, hi: hi})
	}

	// Only constant constraints remain.
	for i := range ls.work {
		if !constHolds(&ls.work[i]) {
			return linUNSAT
		}
	}

	// Back-substitution, newest elimination first.
	clear(ls.asn.has)
	for i := len(ls.elims) - 1; i >= 0; i-- {
		rec := &ls.elims[i]
		if rec.gauss {
			ls.asn.set(rec.x, rec.expr.eval(&ls.asn).add(rec.expr.rhs))
			continue
		}
		v, ok := ls.pickWithinBounds(rec.x, ls.bounds[rec.lo:rec.hi])
		if !ok {
			// Should not happen if FM was performed correctly.
			return linUNKNOWN
		}
		ls.asn.set(rec.x, v)
	}
	return linSAT
}

// pickElimVar picks the variable occurring in the fewest constraints of
// work to bound the quadratic growth of FM (-1 when none has a variable).
func (ls *linSolver) pickElimVar() int32 {
	clear(ls.count)
	for i := range ls.work {
		for _, t := range ls.work[i].terms {
			ls.count[t.x]++
		}
	}
	best, bestN := int32(-1), int32(0)
	for x, n := range ls.count {
		if n > 0 && (best < 0 || n < bestN) {
			best, bestN = int32(x), n
		}
	}
	return best
}

// addScaled appends p·a + q·b without variable skip to the arena and
// returns it as a row's terms.
func (ls *linSolver) addScaled(p rat, a []term, q rat, b []term, skip int32) []term {
	start := len(ls.terms)
	for len(a) > 0 || len(b) > 0 {
		var t term
		switch {
		case len(b) == 0 || (len(a) > 0 && a[0].x < b[0].x):
			t, a = term{x: a[0].x, co: p.mul(a[0].co)}, a[1:]
		case len(a) == 0 || b[0].x < a[0].x:
			t, b = term{x: b[0].x, co: q.mul(b[0].co)}, b[1:]
		default:
			t, a, b = term{x: a[0].x, co: p.mul(a[0].co).add(q.mul(b[0].co))}, a[1:], b[1:]
		}
		if t.x != skip && t.co.sign() != 0 {
			ls.terms = append(ls.terms, t)
		}
	}
	return ls.terms[start:len(ls.terms):len(ls.terms)]
}

// substVar replaces x in c with expr (x = Σ expr.terms + expr.rhs).
func (ls *linSolver) substVar(c *linCon, x int32, expr *linCon) {
	co, ok := c.coeff(x)
	if !ok {
		return
	}
	c.terms = ls.addScaled(ratOne, c.terms, co, expr.terms, x)
	// co·expr.rhs is a constant on the left: lhs + co·k op rhs → lhs op rhs − co·k.
	c.rhs = c.rhs.sub(co.mul(expr.rhs))
}

// combineFM resolves a lower-bound and an upper-bound constraint on x into
// one constraint without x.
func (ls *linSolver) combineFM(lo, hi *linCon, x int32) linCon {
	// lo: −a·x + e1 op1 b1 and hi: c·x + e2 op2 b2 with a, c > 0 give
	// (e1−b1)/a OP x OP (b2−e2)/c, i.e. c·e1 + a·e2 OP c·b1 + a·b2.
	a, _ := lo.coeff(x)
	a = a.neg()
	c, _ := hi.coeff(x)
	op := opLE
	if lo.op == opLT || hi.op == opLT {
		op = opLT
	}
	return linCon{
		terms: ls.addScaled(c, lo.terms, a, hi.terms, x),
		rhs:   c.mul(lo.rhs).add(a.mul(hi.rhs)),
		op:    op,
	}
}

// pickWithinBounds chooses a value for x satisfying every constraint in
// bounds given the already-fixed assignment of the other variables. It
// prefers integral values.
func (ls *linSolver) pickWithinBounds(x int32, bounds []linCon) (rat, bool) {
	var lo, hi rat
	hasLo, hasHi, loStrict, hiStrict := false, false, false, false
	for i := range bounds {
		c := &bounds[i]
		// a·x + other op rhs  →  x op (rhs − other)/a, flipped when a < 0.
		a, _ := c.coeff(x)
		other := c.eval(&ls.asn) // x itself is still unassigned
		bound := c.rhs.sub(other).mul(a.inv())
		strict := c.op == opLT
		cmp := -1 // against no bound yet, any bound is tighter
		if a.sign() > 0 {
			if hasHi {
				cmp = bound.cmp(hi)
			}
			if cmp < 0 || (cmp == 0 && strict) {
				hi, hasHi, hiStrict = bound, true, strict
			}
		} else {
			if hasLo {
				cmp = lo.cmp(bound)
			}
			if cmp < 0 || (cmp == 0 && strict) {
				lo, hasLo, loStrict = bound, true, strict
			}
		}
	}
	return chooseInInterval(lo, hasLo, loStrict, hi, hasHi, hiStrict)
}

// chooseInInterval picks a value in the (possibly open, possibly
// unbounded) interval, favoring integers, then simple rationals.
func chooseInInterval(lo rat, hasLo, loStrict bool, hi rat, hasHi, hiStrict bool) (rat, bool) {
	// The smallest integer above lo, or failing a lower bound the largest
	// below hi.
	var v rat
	switch {
	case !hasLo && !hasHi:
		return ratZero, true
	case !hasLo:
		v = hi.floor()
		if hiStrict && v.equal(hi) {
			v = v.sub(ratOne)
		}
		return v, true
	default:
		v = lo.ceil()
		if loStrict && v.equal(lo) {
			v = v.add(ratOne)
		}
	}
	if !hasHi {
		return v, true
	}
	if cmp := lo.cmp(hi); cmp > 0 || (cmp == 0 && (loStrict || hiStrict)) {
		return rat{}, false
	}
	if cmp := v.cmp(hi); cmp < 0 || (cmp == 0 && !hiStrict) {
		return v, true
	}
	// No integer fits: midpoint.
	return lo.add(hi).mul(rat{n: 1, d: 2}), true
}
