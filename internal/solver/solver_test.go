package solver

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"weseer/internal/smt"
)

func mustSAT(t *testing.T, f smt.Expr) *smt.Model {
	t.Helper()
	res := solve(f)
	if res.Status != SAT {
		t.Fatalf("Solve(%s) = %s, want SAT", f, res.Status)
	}
	if !smt.Eval(f, res.Model).B {
		t.Fatalf("model %s does not satisfy %s", res.Model, f)
	}
	return res.Model
}

func mustUNSAT(t *testing.T, f smt.Expr) {
	t.Helper()
	res := solve(f)
	if res.Status != UNSAT {
		t.Fatalf("Solve(%s) = %s (model %s), want UNSAT", f, res.Status, res.Model)
	}
}

func TestPaperExampleSAT(t *testing.T) {
	// (syma + 1 != 8) ∧ (syma > 3) — Sec. III, expects e.g. syma = 4.
	a := smt.NewVar("syma", smt.SortInt)
	f := smt.And(smt.Ne(smt.Add(a, smt.Int(1)), smt.Int(8)), smt.Gt(a, smt.Int(3)))
	m := mustSAT(t, f)
	v := m.Vars["syma"]
	if v.I <= 3 || v.I == 7 {
		t.Errorf("syma = %d violates the formula", v.I)
	}
}

func TestPaperExampleUNSAT(t *testing.T) {
	// (syma + 1 != 8) ∧ (syma == 7) — Sec. III, expects UNSAT.
	a := smt.NewVar("syma", smt.SortInt)
	f := smt.And(smt.Ne(smt.Add(a, smt.Int(1)), smt.Int(8)), smt.Eq(a, smt.Int(7)))
	mustUNSAT(t, f)
}

func TestTrivial(t *testing.T) {
	if r := solve(smt.True); r.Status != SAT {
		t.Errorf("true: %s", r.Status)
	}
	if r := solve(smt.False); r.Status != UNSAT {
		t.Errorf("false: %s", r.Status)
	}
}

func TestIntBounds(t *testing.T) {
	x := smt.NewVar("x", smt.SortInt)
	// 3 < x < 5 has exactly one integer solution.
	m := mustSAT(t, smt.And(smt.Gt(x, smt.Int(3)), smt.Lt(x, smt.Int(5))))
	if m.Vars["x"].I != 4 {
		t.Errorf("x = %v, want 4", m.Vars["x"])
	}
	// 3 < x < 4 has none over Int.
	mustUNSAT(t, smt.And(smt.Gt(x, smt.Int(3)), smt.Lt(x, smt.Int(4))))
}

func TestRealStrict(t *testing.T) {
	x := smt.NewVar("x", smt.SortReal)
	// 3 < x < 4 is satisfiable over Real.
	m := mustSAT(t, smt.And(smt.Gt(x, smt.Int(3)), smt.Lt(x, smt.Int(4))))
	v := m.Vars["x"].Rat()
	if v.Cmp(big.NewRat(3, 1)) <= 0 || v.Cmp(big.NewRat(4, 1)) >= 0 {
		t.Errorf("x = %v outside (3,4)", v)
	}
}

func TestEqualityChain(t *testing.T) {
	x := smt.NewVar("x", smt.SortInt)
	y := smt.NewVar("y", smt.SortInt)
	z := smt.NewVar("z", smt.SortInt)
	f := smt.And(smt.Eq(x, y), smt.Eq(y, z), smt.Eq(x, smt.Int(10)), smt.Ge(z, smt.Int(10)))
	m := mustSAT(t, f)
	if m.Vars["z"].I != 10 {
		t.Errorf("z = %v, want 10", m.Vars["z"])
	}
	mustUNSAT(t, smt.And(smt.Eq(x, y), smt.Eq(y, z), smt.Eq(x, smt.Int(10)), smt.Gt(z, smt.Int(10))))
}

func TestLinearCombination(t *testing.T) {
	// 2x + 3y = 12 ∧ x = 3 → y = 2.
	x := smt.NewVar("x", smt.SortInt)
	y := smt.NewVar("y", smt.SortInt)
	f := smt.And(
		smt.Eq(smt.Add(smt.Mul(smt.Int(2), x), smt.Mul(smt.Int(3), y)), smt.Int(12)),
		smt.Eq(x, smt.Int(3)),
	)
	m := mustSAT(t, f)
	if m.Vars["y"].I != 2 {
		t.Errorf("y = %v, want 2", m.Vars["y"])
	}
}

func TestIntegrality(t *testing.T) {
	// 2x = 7 has no integer solution but a real one.
	xi := smt.NewVar("xi", smt.SortInt)
	mustUNSAT(t, smt.Eq(smt.Mul(smt.Int(2), xi), smt.Int(7)))
	xr := smt.NewVar("xr", smt.SortReal)
	m := mustSAT(t, smt.Eq(smt.Mul(smt.Int(2), xr), smt.Int(7)))
	if m.Vars["xr"].Rat().Cmp(big.NewRat(7, 2)) != 0 {
		t.Errorf("xr = %v", m.Vars["xr"])
	}
}

func TestDisjunction(t *testing.T) {
	x := smt.NewVar("x", smt.SortInt)
	f := smt.And(
		smt.Or(smt.Lt(x, smt.Int(0)), smt.Gt(x, smt.Int(100))),
		smt.Ge(x, smt.Int(0)),
	)
	m := mustSAT(t, f)
	if m.Vars["x"].I <= 100 {
		t.Errorf("x = %v, want > 100", m.Vars["x"])
	}
}

func TestStrings(t *testing.T) {
	s1 := smt.NewVar("s1", smt.SortString)
	s2 := smt.NewVar("s2", smt.SortString)
	f := smt.And(smt.Eq(s1, smt.Str("alice")), smt.Ne(s1, s2))
	m := mustSAT(t, f)
	if m.Vars["s1"].Str != "alice" || m.Vars["s2"].Str == "alice" {
		t.Errorf("model %s", m)
	}
	mustUNSAT(t, smt.And(smt.Eq(s1, smt.Str("a")), smt.Eq(s1, smt.Str("b"))))
	mustUNSAT(t, smt.And(smt.Eq(s1, s2), smt.Eq(s2, smt.Str("x")), smt.Ne(s1, smt.Str("x"))))
}

func TestStringDisjunction(t *testing.T) {
	s := smt.NewVar("s", smt.SortString)
	f := smt.And(
		smt.Or(smt.Eq(s, smt.Str("a")), smt.Eq(s, smt.Str("b"))),
		smt.Ne(s, smt.Str("a")),
	)
	m := mustSAT(t, f)
	if m.Vars["s"].Str != "b" {
		t.Errorf("s = %v, want b", m.Vars["s"])
	}
}

func TestMixedSorts(t *testing.T) {
	id := smt.NewVar("id", smt.SortInt)
	name := smt.NewVar("name", smt.SortString)
	qty := smt.NewVar("qty", smt.SortReal)
	f := smt.And(
		smt.Eq(id, smt.Int(42)),
		smt.Eq(name, smt.Str("prod")),
		smt.Gt(qty, smt.Real(1, 2)),
		smt.Lt(qty, smt.Int(1)),
	)
	m := mustSAT(t, f)
	if m.Vars["id"].I != 42 || m.Vars["name"].Str != "prod" {
		t.Errorf("model %s", m)
	}
}

func TestArrayTheory(t *testing.T) {
	// Alg. 1 pattern: key not in map, then put, then get must succeed.
	arr := smt.NewArray("cache", smt.SortInt)
	k := smt.NewVar("k", smt.SortInt)
	arr1 := arr.Store(k, true)
	f := smt.And(
		smt.Negate(smt.Read(arr, k)), // before put: absent
		smt.Read(arr1, k),            // after put: present
	)
	mustSAT(t, f)

	// Contradiction: same version, same key, both present and absent.
	g := smt.And(smt.Read(arr, k), smt.Negate(smt.Read(arr, k)))
	mustUNSAT(t, g)
}

func TestArrayAckermann(t *testing.T) {
	// read(A,i) ∧ ¬read(A,j) forces i ≠ j.
	arr := smt.NewArray("A", smt.SortInt)
	i := smt.NewVar("i", smt.SortInt)
	j := smt.NewVar("j", smt.SortInt)
	f := smt.And(smt.Read(arr, i), smt.Negate(smt.Read(arr, j)))
	m := mustSAT(t, f)
	if m.Vars["i"].Equal(m.Vars["j"]) {
		t.Errorf("i and j must differ: %s", m)
	}
	// With i = j it becomes UNSAT.
	mustUNSAT(t, smt.And(f, smt.Eq(i, j)))
}

// TestSelectKeyInjective pins the per-session select-atom key: root plus
// smt.TypedString of the key expression. Structurally different keys never
// share an atom; structurally equal ones always do, whatever their
// pointers — which is also why ackermann needs no equal-keys case.
func TestSelectKeyInjective(t *testing.T) {
	x, rx := smt.NewVar("x", smt.SortInt), smt.NewVar("x", smt.SortReal)
	distinct := []smt.Expr{
		x, rx, smt.NewVar("x", smt.SortString), smt.Str("x"), smt.Str(`"x":1`),
		smt.Int(3), smt.Real(3, 1), smt.Str("3"),
		smt.Add(x, smt.Int(3)), smt.Add(x, smt.Real(3, 1)), smt.Add(rx, smt.Int(3)),
		smt.Add(smt.Int(3), x), smt.Sub(x, smt.Int(3)), smt.Neg(x),
		smt.NewVar("(x + 3)", smt.SortInt), smt.NewVar("x:1", smt.SortInt),
	}
	s := &session{selAtomIdx: map[selKey]int{}}
	for i, k := range distinct {
		if id := s.internSel("A", k); id != i {
			t.Errorf("key %d (%s) shares atom %d (%s)", i, k, id, distinct[id])
		}
	}
	if id := s.internSel("B", x); id != len(distinct) {
		t.Errorf("key x under root B shares atom %d of root A", id)
	}
	k1, k2 := smt.Add(x, smt.Int(3)), smt.Add(x, smt.Int(3))
	if k1 == k2 {
		t.Fatal("test needs pointer-distinct keys")
	}
	if a, b := s.internSel("A", k1), s.internSel("A", k2); a != 8 || b != 8 {
		t.Errorf("equal keys x+3 interned as atoms %d and %d, want 8 (the first x+3)", a, b)
	}
	for i, ai := range s.atoms {
		for _, aj := range s.atoms[:i] {
			if ai.root == aj.root && ai.key == aj.key {
				t.Errorf("distinct atoms carry one key %s", ai.key)
			}
		}
	}
	// End to end: the two reads are one atom, so this needs no congruence
	// clause (x+3 = x+3 folds to a constant and would yield none).
	arr := smt.NewArray("A", smt.SortInt)
	mustUNSAT(t, smt.And(smt.Read(arr, k1), smt.Negate(smt.Read(arr, k2))))
}

func TestArrayStoreShadow(t *testing.T) {
	arr := smt.NewArray("A", smt.SortString)
	k := smt.NewVar("k", smt.SortString)
	a1 := arr.Store(smt.Str("x"), true)
	a2 := a1.Store(smt.Str("x"), false)
	// read(a2, k) ∧ k = "x" is UNSAT (latest store wins).
	mustUNSAT(t, smt.And(smt.Read(a2, k), smt.Eq(k, smt.Str("x"))))
	// read(a2, k) with k = "y" requires root[y] = true: SAT.
	m := mustSAT(t, smt.And(smt.Read(a2, k), smt.Eq(k, smt.Str("y"))))
	if !m.Arrays["A"][smt.StrValue("y").String()] {
		t.Errorf("root array missing entry for y: %v", m.Arrays)
	}
}

func TestBoolVars(t *testing.T) {
	p := smt.NewVar("p", smt.SortBool)
	q := smt.NewVar("q", smt.SortBool)
	f := smt.And(smt.Or(p, q), smt.Negate(p))
	m := mustSAT(t, f)
	if !m.Vars["q"].B || m.Vars["p"].B {
		t.Errorf("model %s", m)
	}
	mustUNSAT(t, smt.And(p, smt.Negate(p)))
}

func TestDeadlockShapedFormula(t *testing.T) {
	// A miniature of Fig. 9: two transaction instances with unified rows.
	// Conflict requires A1.r.ID = A2.updated.ID and both path conditions.
	a1OrderID := smt.NewVar("A1.order_id", smt.SortInt)
	a2OrderID := smt.NewVar("A2.order_id", smt.SortInt)
	a1RowPID := smt.NewVar("A1.res4.row0.p.ID", smt.SortInt)
	a2RowPID := smt.NewVar("A2.res4.row0.p.ID", smt.SortInt)
	r1 := smt.NewVar("r1.p.ID", smt.SortInt)
	r2 := smt.NewVar("r2.p.ID", smt.SortInt)

	f := smt.And(
		// Path conditions: both orders valid.
		smt.Ne(a1OrderID, smt.Int(-1)),
		smt.Ne(a2OrderID, smt.Int(-1)),
		// C-edge 1: A1 reads row r1, A2 writes the same product.
		smt.Eq(r1, a1RowPID),
		smt.Eq(r1, a2RowPID),
		// C-edge 2 (mirror).
		smt.Eq(r2, a2RowPID),
		smt.Eq(r2, a1RowPID),
	)
	m := mustSAT(t, f)
	if !m.Vars["A1.res4.row0.p.ID"].Equal(m.Vars["A2.res4.row0.p.ID"]) {
		t.Errorf("conflicting rows must coincide: %s", m)
	}
}

func TestUnsatCoreStyleConflict(t *testing.T) {
	// Path condition excludes the only conflicting assignment.
	x := smt.NewVar("x", smt.SortInt)
	y := smt.NewVar("y", smt.SortInt)
	f := smt.And(
		smt.Eq(x, y), // conflict condition
		smt.Lt(x, smt.Int(5)),
		smt.Gt(y, smt.Int(5)),
	)
	mustUNSAT(t, f)
}

func TestNegationNormalization(t *testing.T) {
	x := smt.NewVar("x", smt.SortInt)
	f := smt.Negate(smt.Or(smt.Lt(x, smt.Int(0)), smt.Gt(x, smt.Int(10))))
	m := mustSAT(t, f)
	if v := m.Vars["x"].I; v < 0 || v > 10 {
		t.Errorf("x = %d outside [0,10]", v)
	}
}

func TestStats(t *testing.T) {
	x := smt.NewVar("x", smt.SortInt)
	res := solve(smt.And(smt.Gt(x, smt.Int(0)), smt.Lt(x, smt.Int(10))))
	if res.Stats.Atoms == 0 || res.Stats.TheoryCalls == 0 {
		t.Errorf("stats not populated: %+v", res.Stats)
	}
}

// TestRandomizedAgainstBruteForce cross-checks the solver on random small
// integer formulas against exhaustive evaluation over a small domain.
func TestRandomizedAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vars := []smt.Var{
		smt.NewVar("a", smt.SortInt),
		smt.NewVar("b", smt.SortInt),
		smt.NewVar("c", smt.SortInt),
	}
	const domain = 4 // values 0..3

	var genAtom func() smt.Expr
	genAtom = func() smt.Expr {
		v := vars[rng.Intn(len(vars))]
		ops := []smt.CmpOp{smt.EQ, smt.NE, smt.LT, smt.LE, smt.GT, smt.GE}
		op := ops[rng.Intn(len(ops))]
		if rng.Intn(2) == 0 {
			return smt.Compare(op, v, smt.Int(int64(rng.Intn(domain))))
		}
		w := vars[rng.Intn(len(vars))]
		return smt.Compare(op, v, w)
	}
	var gen func(depth int) smt.Expr
	gen = func(depth int) smt.Expr {
		if depth == 0 || rng.Intn(3) == 0 {
			return genAtom()
		}
		n := 2 + rng.Intn(2)
		kids := make([]smt.Expr, n)
		for i := range kids {
			kids[i] = gen(depth - 1)
		}
		switch rng.Intn(3) {
		case 0:
			return smt.And(kids...)
		case 1:
			return smt.Or(kids...)
		default:
			return smt.Negate(smt.And(kids...))
		}
	}

	for iter := 0; iter < 300; iter++ {
		f := gen(3)
		// Domain-restrict so brute force is decisive.
		for _, v := range vars {
			f = smt.And(f, smt.Ge(v, smt.Int(0)), smt.Lt(v, smt.Int(domain)))
		}
		bruteSAT := false
		m := smt.NewModel()
		for a := 0; a < domain && !bruteSAT; a++ {
			for b := 0; b < domain && !bruteSAT; b++ {
				for c := 0; c < domain && !bruteSAT; c++ {
					m.Vars["a"] = smt.IntValue(int64(a))
					m.Vars["b"] = smt.IntValue(int64(b))
					m.Vars["c"] = smt.IntValue(int64(c))
					bruteSAT = smt.Eval(f, m).B
				}
			}
		}
		res := solve(f)
		if bruteSAT && res.Status != SAT {
			t.Fatalf("iter %d: brute force SAT but solver %s for %s", iter, res.Status, f)
		}
		if !bruteSAT && res.Status == SAT {
			t.Fatalf("iter %d: brute force UNSAT but solver SAT (%s) for %s", iter, res.Model, f)
		}
		if res.Status == SAT && !smt.Eval(f, res.Model).B {
			t.Fatalf("iter %d: unverified model %s for %s", iter, res.Model, f)
		}
	}
}

func TestRandomizedStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	consts := []string{"x", "y", "z"}
	vars := []smt.Var{
		smt.NewVar("s0", smt.SortString),
		smt.NewVar("s1", smt.SortString),
	}
	genAtom := func() smt.Expr {
		v := vars[rng.Intn(len(vars))]
		var r smt.Expr
		if rng.Intn(2) == 0 {
			r = smt.Str(consts[rng.Intn(len(consts))])
		} else {
			r = vars[rng.Intn(len(vars))]
		}
		if rng.Intn(2) == 0 {
			return smt.Eq(v, r)
		}
		return smt.Ne(v, r)
	}
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(4)
		kids := make([]smt.Expr, n)
		for i := range kids {
			kids[i] = genAtom()
		}
		f := smt.And(kids...)
		// Brute force over domain {x, y, z, w}.
		domain := []string{"x", "y", "z", "w"}
		bruteSAT := false
		m := smt.NewModel()
		for _, a := range domain {
			for _, b := range domain {
				m.Vars["s0"] = smt.StrValue(a)
				m.Vars["s1"] = smt.StrValue(b)
				if smt.Eval(f, m).B {
					bruteSAT = true
				}
			}
		}
		res := solve(f)
		if bruteSAT != (res.Status == SAT) {
			t.Fatalf("iter %d: brute %v vs solver %s for %s", iter, bruteSAT, res.Status, f)
		}
	}
}

func TestLimitsUnknown(t *testing.T) {
	// An adversarial formula with a tiny theory-call budget yields UNKNOWN,
	// mirroring the paper's treatment of Z3 timeouts.
	x := smt.NewVar("x", smt.SortInt)
	var parts []smt.Expr
	for i := 0; i < 8; i++ {
		parts = append(parts, smt.Or(smt.Eq(x, smt.Int(int64(i))), smt.Eq(x, smt.Int(int64(i+100)))))
	}
	f := smt.And(parts...)
	sv := Solver{budget: 1}
	res := sv.Solve(context.Background(), f)
	if res.Status == SAT && !smt.Eval(f, res.Model).B {
		t.Fatal("SAT without valid model")
	}
	if res.Status == UNSAT {
		t.Fatal("budget-limited solve must not report UNSAT")
	}
}
