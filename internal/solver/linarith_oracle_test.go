package solver

// The arithmetic theory's reference implementation and the differential
// that holds linarith.go to it. The oracle is the solver as it stood
// before rows and machine-word rationals: every constraint a
// map[string]*big.Rat, every step a fresh big.Rat. It is slow and
// obviously exact, which is what a reference is for. The production
// code must return the same status and, on SAT, the same assignment —
// value for value, over the same set of variables — because the search,
// the unsat cores and the reported models all hang off those.

import (
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"testing"
)

// oracleCon is the constraint Σ coeffs[x]·x  op  rhs.
type oracleCon struct {
	coeffs map[string]*big.Rat
	rhs    *big.Rat
	op     linOp
}

func newOracleCon(op linOp) *oracleCon {
	return &oracleCon{coeffs: map[string]*big.Rat{}, rhs: new(big.Rat), op: op}
}

func (c *oracleCon) clone() *oracleCon {
	n := newOracleCon(c.op)
	n.rhs.Set(c.rhs)
	for k, v := range c.coeffs {
		n.coeffs[k] = new(big.Rat).Set(v)
	}
	return n
}

// addTerm adds coeff·x to the left-hand side.
func (c *oracleCon) addTerm(x string, coeff *big.Rat) {
	if cur, ok := c.coeffs[x]; ok {
		cur.Add(cur, coeff)
		if cur.Sign() == 0 {
			delete(c.coeffs, x)
		}
		return
	}
	if coeff.Sign() != 0 {
		c.coeffs[x] = new(big.Rat).Set(coeff)
	}
}

// eval returns lhs value under the assignment; missing vars count as 0.
func (c *oracleCon) eval(asn map[string]*big.Rat) *big.Rat {
	sum := new(big.Rat)
	for x, co := range c.coeffs {
		if v, ok := asn[x]; ok {
			sum.Add(sum, new(big.Rat).Mul(co, v))
		}
	}
	return sum
}

// holds reports whether the constraint is satisfied under a total
// assignment of its variables.
func (c *oracleCon) holds(asn map[string]*big.Rat) bool {
	cmp := c.eval(asn).Cmp(c.rhs)
	switch c.op {
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

// oracleSolveLinear decides the conjunction of constraints and, when satisfiable,
// returns an assignment. intVars lists variables that must take integral
// values.
func oracleSolveLinear(cons []*oracleCon, intVars map[string]bool, lim fmLimits) (map[string]*big.Rat, linStatus) {
	return oracleSolveNE(cons, intVars, lim, lim.maxNEBranch)
}

// oracleSolveNE handles disequalities lazily: solve the relaxation without
// them, and only case-split a disequality the relaxed model violates.
// Executions rarely pin values onto their excluded points, so this
// typically costs zero splits instead of 2^|NE|.
func oracleSolveNE(cons []*oracleCon, intVars map[string]bool, lim fmLimits, neBudget int) (map[string]*big.Rat, linStatus) {
	var nes, rest []*oracleCon
	for _, c := range cons {
		if c.op == opNE {
			nes = append(nes, c)
		} else {
			rest = append(rest, c)
		}
	}
	m, st := oracleSolveIntBB(rest, intVars, lim, lim.maxIntDepth)
	if st != linSAT {
		return nil, st
	}
	violated := -1
	for i, ne := range nes {
		if !ne.holds(m) {
			violated = i
			break
		}
	}
	if violated < 0 {
		return m, linSAT
	}
	if neBudget <= 0 {
		return nil, linUNKNOWN
	}
	ne := nes[violated]
	keep := make([]*oracleCon, 0, len(cons)-1)
	keep = append(keep, rest...)
	for i, other := range nes {
		if i != violated {
			keep = append(keep, other)
		}
	}
	unknown := false
	for _, side := range []bool{true, false} { // lhs < rhs, then lhs > rhs
		b := ne.clone()
		b.op = opLT
		if !side { // lhs > rhs  ⇔  -lhs < -rhs
			for _, v := range b.coeffs {
				v.Neg(v)
			}
			b.rhs.Neg(b.rhs)
		}
		m2, st2 := oracleSolveNE(append(oracleCloneCons(keep), b), intVars, lim, neBudget-1)
		switch st2 {
		case linSAT:
			return m2, linSAT
		case linUNKNOWN:
			unknown = true
		}
	}
	if unknown {
		return nil, linUNKNOWN
	}
	return nil, linUNSAT
}

// oracleSolveIntBB solves the rational relaxation and repairs fractional values
// of integer variables by branch and bound.
func oracleSolveIntBB(cons []*oracleCon, intVars map[string]bool, lim fmLimits, depth int) (map[string]*big.Rat, linStatus) {
	if lim.stop != nil && lim.stop() {
		return nil, linUNKNOWN
	}
	m, st := oracleSolveRational(cons, lim)
	if st != linSAT {
		return nil, st
	}
	var fracVar string
	var fracVal *big.Rat
	// Deterministic choice of the fractional variable to branch on.
	names := make([]string, 0, len(m))
	for x := range m {
		names = append(names, x)
	}
	sort.Strings(names)
	for _, x := range names {
		if intVars[x] && !m[x].IsInt() {
			fracVar, fracVal = x, m[x]
			break
		}
	}
	if fracVar == "" {
		return m, linSAT
	}
	if depth <= 0 {
		return nil, linUNKNOWN
	}
	floor := oracleFloor(fracVal)
	unknown := false
	// Branch x <= floor(v).
	le := newOracleCon(opLE)
	le.coeffs[fracVar] = big.NewRat(1, 1)
	le.rhs.Set(floor)
	if m2, st := oracleSolveIntBB(append(oracleCloneCons(cons), le), intVars, lim, depth-1); st == linSAT {
		return m2, linSAT
	} else if st == linUNKNOWN {
		unknown = true
	}
	// Branch x >= floor(v)+1  ⇔  -x <= -(floor+1).
	ge := newOracleCon(opLE)
	ge.coeffs[fracVar] = big.NewRat(-1, 1)
	ge.rhs.Neg(new(big.Rat).Add(floor, big.NewRat(1, 1)))
	if m2, st := oracleSolveIntBB(append(oracleCloneCons(cons), ge), intVars, lim, depth-1); st == linSAT {
		return m2, linSAT
	} else if st == linUNKNOWN {
		unknown = true
	}
	if unknown {
		return nil, linUNKNOWN
	}
	return nil, linUNSAT
}

func oracleCloneCons(cons []*oracleCon) []*oracleCon {
	out := make([]*oracleCon, len(cons))
	copy(out, cons)
	return out
}

func oracleFloor(r *big.Rat) *big.Rat {
	q := new(big.Int).Quo(r.Num(), r.Denom())
	if r.Sign() < 0 && !r.IsInt() {
		q.Sub(q, big.NewInt(1))
	}
	return new(big.Rat).SetInt(q)
}

// oracleElim remembers how a variable was eliminated so its value can be
// recovered by back-substitution.
type oracleElim struct {
	x string
	// For Gaussian elimination of x via an equality: x = expr.
	eqExpr *oracleCon // interpretation: x = Σ coeffs·y + rhs
	gauss  bool
	bounds []*oracleCon // for FM: original constraints involving x
}

// oracleSolveRational runs Gaussian + Fourier–Motzkin elimination over Q.
func oracleSolveRational(cons []*oracleCon, lim fmLimits) (map[string]*big.Rat, linStatus) {
	work := make([]*oracleCon, 0, len(cons))
	for _, c := range cons {
		work = append(work, c.clone())
	}
	var elims []oracleElim

	// Phase 1: substitute away equalities.
	for {
		eqIdx := -1
		for i, c := range work {
			if c.op == opEQ && len(c.coeffs) > 0 {
				eqIdx = i
				break
			}
		}
		if eqIdx < 0 {
			break
		}
		eq := work[eqIdx]
		x := oraclePickVar(eq.coeffs)
		a := eq.coeffs[x]
		// x = (rhs - Σ other coeffs·y) / a
		expr := newOracleCon(opEQ)
		expr.rhs = new(big.Rat).Quo(eq.rhs, a)
		for y, co := range eq.coeffs {
			if y == x {
				continue
			}
			q := new(big.Rat).Quo(co, a)
			q.Neg(q)
			expr.coeffs[y] = q
		}
		elims = append(elims, oracleElim{x: x, eqExpr: expr, gauss: true})
		work = append(work[:eqIdx], work[eqIdx+1:]...)
		for _, c := range work {
			oracleSubstVar(c, x, expr)
		}
	}

	// Phase 2: Fourier–Motzkin on inequalities.
	for {
		if lim.stop != nil && lim.stop() {
			return nil, linUNKNOWN
		}
		x := oraclePickElimVar(work)
		if x == "" {
			break
		}
		var lowers, uppers, rest []*oracleCon
		var involved []*oracleCon
		for _, c := range work {
			co, ok := c.coeffs[x]
			if !ok {
				rest = append(rest, c)
				continue
			}
			involved = append(involved, c)
			if co.Sign() > 0 {
				uppers = append(uppers, c) // a·x + e op b with a>0 → x ≤ (b-e)/a
			} else {
				lowers = append(lowers, c)
			}
		}
		for _, lo := range lowers {
			for _, hi := range uppers {
				nc := oracleCombineFM(lo, hi, x)
				if len(nc.coeffs) == 0 {
					if !oracleConstHolds(nc) {
						return nil, linUNSAT
					}
					continue
				}
				rest = append(rest, nc)
			}
		}
		if len(rest) > lim.maxConstraints {
			return nil, linUNKNOWN
		}
		elims = append(elims, oracleElim{x: x, bounds: involved})
		work = rest
	}

	// Only constant constraints remain.
	for _, c := range work {
		if len(c.coeffs) == 0 && !oracleConstHolds(c) {
			return nil, linUNSAT
		}
	}

	// Back-substitution, newest elimination first.
	asn := map[string]*big.Rat{}
	for i := len(elims) - 1; i >= 0; i-- {
		rec := elims[i]
		if rec.gauss {
			v := rec.eqExpr.eval(asn)
			v.Add(v, rec.eqExpr.rhs)
			asn[rec.x] = v
			continue
		}
		v, ok := oraclePickWithinBounds(rec.x, rec.bounds, asn)
		if !ok {
			// Should not happen if FM was performed correctly.
			return nil, linUNKNOWN
		}
		asn[rec.x] = v
	}
	return asn, linSAT
}

func oraclePickVar(coeffs map[string]*big.Rat) string {
	best := ""
	for x := range coeffs {
		if best == "" || x < best {
			best = x
		}
	}
	return best
}

// oraclePickElimVar picks the variable occurring in the fewest constraints to
// bound the quadratic growth of FM.
func oraclePickElimVar(cons []*oracleCon) string {
	count := map[string]int{}
	for _, c := range cons {
		for x := range c.coeffs {
			count[x]++
		}
	}
	best, bestN := "", -1
	for x, n := range count {
		if bestN == -1 || n < bestN || (n == bestN && x < best) {
			best, bestN = x, n
		}
	}
	return best
}

// oracleCombineFM resolves a lower-bound and an upper-bound constraint on x into
// one constraint without x.
func oracleCombineFM(lo, hi *oracleCon, x string) *oracleCon {
	// lo: a·x + e1 op1 b1 with a<0  →  (e1-b1)/(-a) ≤ x  (strict if op1==LT)
	// hi: c·x + e2 op2 b2 with c>0  →  x ≤ (b2-e2)/c
	// Combined: (e1-b1)/(-a) OP (b2-e2)/c
	a := new(big.Rat).Neg(lo.coeffs[x]) // a > 0
	c := new(big.Rat).Set(hi.coeffs[x]) // c > 0
	op := opLE
	if lo.op == opLT || hi.op == opLT {
		op = opLT
	}
	// c·(e1-b1) OP a·(b2-e2)  →  c·e1 + a·e2 OP c·b1 + a·b2
	nc := newOracleCon(op)
	for y, co := range lo.coeffs {
		if y == x {
			continue
		}
		nc.addTerm(y, new(big.Rat).Mul(c, co))
	}
	for y, co := range hi.coeffs {
		if y == x {
			continue
		}
		nc.addTerm(y, new(big.Rat).Mul(a, co))
	}
	nc.rhs.Add(new(big.Rat).Mul(c, lo.rhs), new(big.Rat).Mul(a, hi.rhs))
	return nc
}

func oracleConstHolds(c *oracleCon) bool {
	zero := new(big.Rat)
	switch c.op {
	case opLE:
		return zero.Cmp(c.rhs) <= 0
	case opLT:
		return zero.Cmp(c.rhs) < 0
	case opEQ:
		return zero.Cmp(c.rhs) == 0
	case opNE:
		return zero.Cmp(c.rhs) != 0
	}
	return false
}

// oracleSubstVar replaces x in c with expr (x = Σ coeffs·y + rhs).
func oracleSubstVar(c *oracleCon, x string, expr *oracleCon) {
	co, ok := c.coeffs[x]
	if !ok {
		return
	}
	delete(c.coeffs, x)
	for y, e := range expr.coeffs {
		c.addTerm(y, new(big.Rat).Mul(co, e))
	}
	// co·rhs moves to the right-hand side with opposite sign... it is part
	// of the lhs constant: lhs + co·exprRhs op rhs  →  lhs op rhs - co·exprRhs
	c.rhs.Sub(c.rhs, new(big.Rat).Mul(co, expr.rhs))
}

// oraclePickWithinBounds chooses a value for x satisfying every constraint in
// bounds given the already-fixed assignment of the other variables. It
// prefers integral values.
func oraclePickWithinBounds(x string, bounds []*oracleCon, asn map[string]*big.Rat) (*big.Rat, bool) {
	var lo, hi *big.Rat
	loStrict, hiStrict := false, false
	for _, c := range bounds {
		a := c.coeffs[x]
		// a·x + Σ other ≤/<= rhs  →  x ≤ (rhs - other)/a for a>0
		other := new(big.Rat)
		for y, co := range c.coeffs {
			if y == x {
				continue
			}
			v, ok := asn[y]
			if !ok {
				v = new(big.Rat)
			}
			other.Add(other, new(big.Rat).Mul(co, v))
		}
		bound := new(big.Rat).Sub(c.rhs, other)
		bound.Quo(bound, a)
		strict := c.op == opLT
		if a.Sign() > 0 { // upper bound
			if hi == nil || bound.Cmp(hi) < 0 || (bound.Cmp(hi) == 0 && strict) {
				hi, hiStrict = bound, strict
			}
		} else { // lower bound (inequality flips)
			if lo == nil || bound.Cmp(lo) > 0 || (bound.Cmp(lo) == 0 && strict) {
				lo, loStrict = bound, strict
			}
		}
	}
	return oracleChooseInInterval(lo, loStrict, hi, hiStrict)
}

// oracleChooseInInterval picks a value in the (possibly open) interval, favoring
// integers, then simple rationals.
func oracleChooseInInterval(lo *big.Rat, loStrict bool, hi *big.Rat, hiStrict bool) (*big.Rat, bool) {
	one := big.NewRat(1, 1)
	switch {
	case lo == nil && hi == nil:
		return new(big.Rat), true
	case lo == nil:
		v := oracleFloor(hi)
		if hiStrict && v.Cmp(hi) == 0 {
			v.Sub(v, one)
		}
		return v, true
	case hi == nil:
		v := oracleCeil(lo)
		if loStrict && v.Cmp(lo) == 0 {
			v.Add(v, one)
		}
		return v, true
	}
	cmp := lo.Cmp(hi)
	if cmp > 0 || (cmp == 0 && (loStrict || hiStrict)) {
		return nil, false
	}
	// Try the smallest integer in the interval.
	v := oracleCeil(lo)
	if loStrict && v.Cmp(lo) == 0 {
		v.Add(v, one)
	}
	if c := v.Cmp(hi); c < 0 || (c == 0 && !hiStrict) {
		return v, true
	}
	// No integer fits: midpoint.
	mid := new(big.Rat).Add(lo, hi)
	mid.Quo(mid, big.NewRat(2, 1))
	return mid, true
}

func oracleCeil(r *big.Rat) *big.Rat {
	q := new(big.Int).Quo(r.Num(), r.Denom())
	if r.Sign() > 0 && !r.IsInt() {
		q.Add(q, big.NewInt(1))
	}
	return new(big.Rat).SetInt(q)
}

// ---------------------------------------------------------------------------
// Differential

// linSystem is one conjunction in both representations, over variables
// v0 < v1 < … (so name order is id order).
type linSystem struct {
	oracle  []*oracleCon
	intVars map[string]bool
	isInt   []bool
}

func varName(x int) string { return fmt.Sprintf("v%d", x) }

// rows converts the oracle's constraints to production rows, disequalities
// apart as theoryCheck hands them over.
func (sys *linSystem) rows() (rest, nes []linCon) {
	for _, oc := range sys.oracle {
		c := linCon{rhs: ratBig(oc.rhs), op: oc.op}
		for x := range sys.isInt {
			if co, ok := oc.coeffs[varName(x)]; ok {
				c.terms = append(c.terms, term{x: int32(x), co: ratBig(co)})
			}
		}
		if c.op == opNE {
			nes = append(nes, c)
		} else {
			rest = append(rest, c)
		}
	}
	return rest, nes
}

// checkAgainstOracle solves sys both ways and compares.
func checkAgainstOracle(t *testing.T, ls *linSolver, sys *linSystem, lim fmLimits) linStatus {
	t.Helper()
	want, wantSt := oracleSolveLinear(sys.oracle, sys.intVars, lim)
	ls.reset(sys.isInt, lim)
	rest, nes := sys.rows()
	gotSt := ls.solve(rest, nes)
	if gotSt != wantSt {
		t.Fatalf("status %d, oracle %d on %s", gotSt, wantSt, sys)
	}
	if gotSt != linSAT {
		return gotSt
	}
	for x := range sys.isInt {
		w, inOracle := want[varName(x)]
		if ls.asn.has[x] != inOracle {
			t.Fatalf("%s assigned: %v, oracle: %v on %s", varName(x), ls.asn.has[x], inOracle, sys)
		}
		if inOracle && ls.asn.val[x].big().Cmp(w) != 0 {
			t.Fatalf("%s = %s, oracle %s on %s", varName(x), ls.asn.val[x].big().RatString(), w.RatString(), sys)
		}
	}
	return gotSt
}

func (sys *linSystem) String() string {
	out := ""
	for _, c := range sys.oracle {
		names := make([]string, 0, len(c.coeffs))
		for x := range c.coeffs {
			names = append(names, x)
		}
		sort.Strings(names)
		for _, x := range names {
			out += fmt.Sprintf("%s·%s ", c.coeffs[x].RatString(), x)
		}
		out += fmt.Sprintf("%s %s; ", [...]string{"<=", "<", "=", "!="}[c.op], c.rhs.RatString())
	}
	return fmt.Sprintf("%sint=%v", out, sys.isInt)
}

// decodeLinSystem reads a system of ≤ 12 constraints over ≤ 8 Int/Real
// variables from fuzz bytes (exhausted input reads as zeros). A number is
// one byte: small (−3…3), a small fraction, or within 64 of ±2⁶², so that
// sums and products of two leave int64.
func decodeLinSystem(data []byte) *linSystem {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	num := func() *big.Rat {
		b := next()
		switch {
		case b&0x80 != 0:
			v := int64(1)<<62 - int64(b&0x3f)
			if b&0x40 != 0 {
				v = -v
			}
			return new(big.Rat).SetInt64(v)
		case b&0x40 != 0:
			return big.NewRat(int64(b&7)-3, int64(b>>3&3)+1)
		}
		return new(big.Rat).SetInt64(int64(b%7) - 3)
	}
	nvars := 1 + int(next()%8)
	intMask := next()
	sys := &linSystem{intVars: map[string]bool{}, isInt: make([]bool, nvars)}
	for x := range sys.isInt {
		if intMask>>x&1 != 0 {
			sys.isInt[x], sys.intVars[varName(x)] = true, true
		}
	}
	for n := 1 + int(next()%12); n > 0; n-- {
		b := next()
		c := newOracleCon(linOp(b & 3))
		for k := int(b >> 2 & 3); k >= 0; k-- {
			c.addTerm(varName(int(next())%nvars), num())
		}
		c.rhs = num()
		sys.oracle = append(sys.oracle, c)
	}
	return sys
}

// FuzzLinarith is the differential: same status, same assignment. The
// limits are low so the UNKNOWN exits (constraint blow-up, branch depth,
// disequality budget) are reached, and reached at the same point.
func FuzzLinarith(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0xff, 4, 0x04, 0, 1, 1, 2, 5, 0x05, 0, 0x48, 1, 0x51, 6, 0x02, 2, 4, 3, 0x03, 0, 4, 4})
	f.Add([]byte{7, 0x0f, 11, 0x08, 0, 0x81, 1, 0x82, 2, 0xc3, 0x84, 0x04, 3, 0x85, 4, 0xc6, 5, 0x09, 0, 1, 2, 2, 4, 3})
	lim := fmLimits{maxConstraints: 500, maxNEBranch: 4, maxIntDepth: 6}
	var ls linSolver // one, reset input after input, as a Solver keeps its own
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, &ls, decodeLinSystem(data), lim)
	})
}

// TestLinarithAgainstOracle runs the differential over pinned random
// systems on every plain test run, and checks that the generator reaches
// what it is there to reach: all three statuses and the promoted half.
func TestLinarithAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	lim := fmLimits{maxConstraints: 500, maxNEBranch: 4, maxIntDepth: 6}
	var seen [3]int
	var ls linSolver
	before := promotions.Load()
	for i := 0; i < 4000; i++ {
		data := make([]byte, 8+rng.Intn(90))
		rng.Read(data)
		if i%2 == 0 { // half the systems stay in int64
			for j := range data {
				data[j] &= 0x3f
			}
		}
		seen[checkAgainstOracle(t, &ls, decodeLinSystem(data), lim)]++
	}
	if seen[linSAT] < 100 || seen[linUNSAT] < 100 || seen[linUNKNOWN] == 0 {
		t.Errorf("SAT/UNSAT/UNKNOWN = %v: the generator is lopsided", seen)
	}
	if promotions.Load() == before {
		t.Error("no operation was promoted")
	}
	t.Logf("SAT/UNSAT/UNKNOWN = %v, %d promotions", seen, promotions.Load()-before)
}
