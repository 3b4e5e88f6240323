package solver

import (
	"fmt"
	"math/big"
	"testing"

	"weseer/internal/smt"
)

// TestSolvePromotes solves a system over IntConsts near 2^62 end to end:
// the equalities' right-hand sides add up past int64 inside the Gaussian
// step, so the promoted half carries the elimination, and the verdict and
// model must be the oracle's.
func TestSolvePromotes(t *testing.T) {
	x, y := smt.NewVar("x", smt.SortInt), smt.NewVar("y", smt.SortInt)
	const c1, c2 = 1<<62 + 5, 1<<62 - 1
	f := smt.And(
		smt.Eq(smt.Add(x, y), smt.Int(c1)),
		smt.Eq(smt.Sub(x, y), smt.Int(-c2)))

	before := promotions.Load()
	m := mustSAT(t, f)
	if promotions.Load() == before {
		t.Error("no operation was promoted: the test misses its point")
	}

	sum, diff := newOracleCon(opEQ), newOracleCon(opEQ)
	sum.addTerm("x", big.NewRat(1, 1))
	sum.addTerm("y", big.NewRat(1, 1))
	sum.rhs.SetInt64(c1)
	diff.addTerm("x", big.NewRat(1, 1))
	diff.addTerm("y", big.NewRat(-1, 1))
	diff.rhs.SetInt64(-c2)
	want, st := oracleSolveLinear([]*oracleCon{sum, diff}, map[string]bool{"x": true, "y": true}, defaultFMLimits())
	if st != linSAT || len(want) != len(m.Vars) {
		t.Fatalf("oracle: status %d, %d values for a model of %d", st, len(want), len(m.Vars))
	}
	for name, w := range want {
		if got := m.Vars[name]; got.S != smt.SortInt || got.Rat().Cmp(w) != 0 {
			t.Errorf("%s = %s, oracle %s", name, got, w.RatString())
		}
	}
	if m.Vars["x"].I != 3 || m.Vars["y"].I != 1<<62+2 {
		t.Errorf("model %s, want x=3 y=2^62+2", m)
	}
}

// TestIntModelOutOfRangeIsUnknown: an Int variable whose every solution
// lies beyond int64 has no smt.Value; the answer is UNKNOWN, not a model
// holding the value's low 64 bits.
func TestIntModelOutOfRangeIsUnknown(t *testing.T) {
	x := smt.NewVar("x", smt.SortInt)
	c := smt.Int(1 << 62)
	f := smt.And(smt.Gt(x, c), smt.Gt(smt.Sub(x, c), c)) // x > 2^63
	if res := solve(f); res.Status != UNKNOWN || res.Model != nil {
		t.Errorf("Solve(%s) = %s (model %s), want UNKNOWN", f, res.Status, res.Model)
	}
	// The same bound on a Real is representable, and one notch lower fits.
	r := smt.NewVar("r", smt.SortReal)
	m := mustSAT(t, smt.And(smt.Gt(r, c), smt.Gt(smt.Sub(r, c), c)))
	if want := new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 63), big.NewInt(1)); m.Vars["r"].R.Cmp(want) <= 0 {
		t.Errorf("r = %s, want > 2^63", m.Vars["r"])
	}
	m = mustSAT(t, smt.And(smt.Gt(x, c), smt.Gt(smt.Sub(x, c), smt.Int(1<<62-2)))) // x > 2^63-2
	if m.Vars["x"].I != 1<<63-1 {
		t.Errorf("x = %s, want MaxInt64", m.Vars["x"])
	}
}

// TestTheoryCheckAllocs is the allocation ceiling of the hot loop: a
// theory check whose cached assignment still holds allocates nothing, and
// neither does one that re-solves its ten constraints by Gaussian and
// Fourier–Motzkin elimination, once the session's scratch has grown to
// the system's size.
func TestTheoryCheckAllocs(t *testing.T) {
	vars := make([]smt.Expr, 6)
	for i := range vars {
		vars[i] = smt.NewVar(fmt.Sprintf("v%d", i), smt.SortInt)
	}
	cons := []smt.Expr{
		smt.Eq(vars[0], smt.Add(vars[1], smt.Int(1))),
		smt.Eq(smt.Add(vars[2], vars[3]), smt.Int(10)),
		smt.Ne(vars[4], smt.Int(3)),
	}
	for i := 0; i+1 < len(vars); i++ {
		cons = append(cons, smt.Lt(vars[i+1], vars[i]))
	}
	cons = append(cons, smt.Le(vars[0], smt.Int(100)), smt.Ge(vars[5], smt.Int(-100)))
	f := smt.And(cons...)

	var s session
	s.reset(f, defaultFMLimits())
	if _, ok := s.nnf(f, true); !ok || len(s.atoms) != len(cons) {
		t.Fatalf("atomized %d constraints into %d atoms", len(cons), len(s.atoms))
	}
	// One auxiliary variable stays unassigned, so no model is built.
	d := &cdcl{numVars: len(s.atoms) + 1, stats: &s.stats}
	d.start()
	for id := range s.atoms {
		d.assign[id] = 1
	}
	d.assign[2] = -1 // v4 ≠ 3, the disequality
	check := func() {
		if _, st, _ := s.theoryCheck(d); st != linSAT {
			t.Fatalf("theory check: status %d", st)
		}
	}
	check()
	if n := testing.AllocsPerRun(100, check); n != 0 {
		t.Errorf("theory check on a still-valid cached assignment: %v allocs, want 0", n)
	}
	resolve := func() {
		s.haveLast = false
		check()
	}
	if n := testing.AllocsPerRun(100, resolve); n != 0 {
		t.Errorf("theory check re-solving %d constraints: %v allocs, want 0", len(cons), n)
	}
}

// TestInternLinProbesPastCollision forces two different rows onto one
// hash slot: the second must get its own atom, and find it again.
func TestInternLinProbesPastCollision(t *testing.T) {
	x := smt.NewVar("x", smt.SortInt)
	var s session
	s.reset(x, defaultFMLimits())
	row := func(rhs int64) linCon {
		return linCon{terms: []term{{x: 0, co: ratOne}}, rhs: ratInt(rhs), op: opLE}
	}
	a, two := s.internLin(row(1)), row(2)
	s.linIndex[two.hash()] = a // as if x ≤ 1 hashed where x ≤ 2 does
	b := s.internLin(row(2))
	if b == a || s.internLin(row(2)) != b || s.internLin(row(1)) != a || len(s.atoms) != 2 {
		t.Errorf("x ≤ 1 is atom %d, x ≤ 2 atom %d, %d atoms in all", a, b, len(s.atoms))
	}
}
