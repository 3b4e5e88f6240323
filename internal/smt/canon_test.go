package smt

import (
	"testing"
)

func TestCanonAlphaEquivalence(t *testing.T) {
	// Two copies of the same formula under different instance prefixes
	// must canonicalize to the same key — that is the memoization win.
	mk := func(prefix string) Expr {
		x := NewVar(prefix+"order_id", SortInt)
		p := NewVar(prefix+"res0.row0.p.ID", SortInt)
		r := NewVar(prefix+"rng.lo1", SortInt)
		return And(Ne(x, Int(-1)), Eq(r, p), Le(r, Add(x, Int(3))))
	}
	c1, c2 := Canon(mk("A1.")), Canon(mk("B7!"))
	if c1.Key() != c2.Key() {
		t.Fatalf("alpha-equivalent formulas got distinct keys:\n%s\n%s", c1.Key(), c2.Key())
	}
	if c1.Expr.String() != c1.Key() {
		t.Errorf("Key must be the canonical expr's string form")
	}
}

func TestCanonDistinguishesStructure(t *testing.T) {
	x := NewVar("x", SortInt)
	y := NewVar("y", SortInt)
	cases := [][2]Expr{
		// Different operator.
		{Lt(x, y), Le(x, y)},
		// Same shape but one variable repeated vs two distinct ones.
		{Eq(x, x), Eq(x, y)},
		// Different constant *gap* in an order comparison: the uniform
		// shift anchors a component's smallest constant at zero, so a
		// single bound normalizes away, but relative distances between
		// bounds must survive.
		{
			And(Gt(x, Int(0)), Lt(x, Int(1))),
			And(Gt(x, Int(0)), Lt(x, Int(2))),
		},
		// Equality-only formulas whose constant *repetition patterns*
		// differ within one component: with x and y linked by x≠y,
		// x=5 ∧ y=5 is unsatisfiable while x=5 ∧ y=6 is not.
		{
			And(Eq(x, Int(5)), Eq(y, Int(5)), Ne(x, y)),
			And(Eq(x, Int(5)), Eq(y, Int(6)), Ne(x, y)),
		},
		// Different sort of the corresponding variable.
		{Eq(NewVar("a", SortInt), Int(0)), &Cmp{Op: EQ, L: NewVar("a", SortReal), R: Int(0)}},
	}
	for i, c := range cases {
		if Canon(c[0]).Key() == Canon(c[1]).Key() {
			t.Errorf("case %d: distinct formulas share key %q", i, Canon(c[0]).Key())
		}
	}
}

func TestCanonRenameIsInvertibleBijection(t *testing.T) {
	x := NewVar("A1.x", SortInt)
	y := NewVar("A2.y", SortString)
	arr := NewArray("A1.map3", SortInt).Store(x, true)
	f := And(Ne(y, Str("u")), Read(arr, Add(x, Int(1))))
	c := Canon(f)
	if len(c.Rename) != 3 { // A1.x, A2.y, A1.map3
		t.Fatalf("rename map = %v", c.Rename)
	}
	inv := c.Invert()
	if len(inv) != len(c.Rename) {
		t.Fatalf("rename not injective: %v", c.Rename)
	}
	for orig, canon := range c.Rename {
		if inv[canon] != orig {
			t.Errorf("inverse broken for %s -> %s", orig, canon)
		}
	}
	// Renaming back through the inverse restores the original formula up
	// to commutative reordering: same canonical key, same variables.
	back := Rename(c.Expr, func(n string) string {
		if o, ok := inv[n]; ok {
			return o
		}
		return n
	})
	if Canon(back).Key() != c.Key() {
		t.Errorf("round trip changed formula:\n%s\n%s", f, back)
	}
	bv, fv := VarSet(back), VarSet(f)
	if len(bv) != len(fv) {
		t.Fatalf("round trip changed variables: %v vs %v", bv, fv)
	}
	for n, s := range fv {
		if bv[n] != s {
			t.Errorf("round trip lost %s:%s", n, s)
		}
	}
}

func TestCanonCommutativeNormalization(t *testing.T) {
	x := NewVar("A1.x", SortInt)
	y := NewVar("A1.y", SortInt)
	a, b := Gt(x, Int(0)), Eq(y, Int(7))

	// Plain operand reordering of a conjunction.
	if Canon(And(a, b)).Key() != Canon(And(b, a)).Key() {
		t.Error("And(a,b) and And(b,a) should share a key")
	}
	if Canon(Or(a, b)).Key() != Canon(Or(b, a)).Key() {
		t.Error("Or(a,b) and Or(b,a) should share a key")
	}

	// The mirror-cycle shape: two role-symmetric conjunct groups, listed
	// in opposite role order by the swapped pairing. mk(p, q) stands for
	// the formula the (p=holder, q=waiter) orientation builds.
	mk := func(p, q string) Expr {
		px := NewVar(p+"id", SortInt)
		qx := NewVar(q+"id", SortInt)
		return And(
			Eq(px, qx),
			Gt(px, Int(0)),
			Ne(qx, Int(-1)),
		)
	}
	f1 := And(mk("A1.", "A2."), Lt(NewVar("A1.id", SortInt), Int(100)))
	f2 := And(Lt(NewVar("A2.id", SortInt), Int(100)), mk("A2.", "A1."))
	if Canon(f1).Key() != Canon(f2).Key() {
		t.Errorf("mirror formulas got distinct keys:\n%s\n%s", Canon(f1).Key(), Canon(f2).Key())
	}

	// Sorting must not merge genuinely different formulas.
	if Canon(And(a, b)).Key() == Canon(And(a, Negate(b))).Key() {
		t.Error("distinct conjunctions share a key")
	}
}

func TestCanonModelTranslation(t *testing.T) {
	// A model for the canonical formula, renamed through the inverse
	// mapping, must satisfy the original formula.
	x := NewVar("A1.qty", SortInt)
	y := NewVar("A2.qty", SortInt)
	f := And(Eq(x, y), Ge(x, Int(5)))
	c := Canon(f)
	inv := c.Invert()

	cm := NewModel()
	for name, sort := range VarSet(c.Expr) {
		if sort != SortInt {
			t.Fatalf("unexpected sort for %s", name)
		}
		cm.Vars[name] = IntValue(5)
	}
	if !Eval(c.Expr, cm).B {
		t.Fatal("canonical model does not satisfy canonical formula")
	}
	om := NewModel()
	for name, v := range cm.Vars {
		om.Vars[inv[name]] = v
	}
	if !Eval(f, om).B {
		t.Fatal("translated model does not satisfy original formula")
	}
}

func TestCanonConstantAbstraction(t *testing.T) {
	x := NewVar("A1.id", SortInt)
	y := NewVar("A1.code", SortString)
	mk := func(n int64, s string) Expr {
		return And(Eq(x, Int(n)), Ne(y, Str(s)), Read(NewArray("A1.rows", SortInt), x))
	}
	c1, c2 := Canon(mk(42, "acct")), Canon(mk(7, "sku"))
	if c1.Key() != c2.Key() {
		t.Fatalf("pure-equality formulas differing only in constants got distinct keys:\n%s\n%s", c1.Key(), c2.Key())
	}
	if len(c1.ints) == 0 || len(c1.strs) == 0 {
		t.Fatal("constant maps should be populated for abstracted components")
	}

	// Any order comparison (or arithmetic, or Real sort) taints the
	// component it touches: there the concrete magnitudes carry meaning.
	for i, f := range []Expr{
		And(Eq(x, Int(42)), Lt(x, Int(100))),
		Eq(x, Add(x, Int(0))),
		&Cmp{Op: EQ, L: NewVar("r", SortReal), R: Int(0)},
	} {
		if c := Canon(f); len(c.ints) != 0 || len(c.strs) != 0 {
			t.Errorf("case %d: no constant should be abstracted in a tainted formula", i)
		}
	}

	// Taint is per component: an order comparison on one variable leaves
	// an unrelated pure-equality component abstractable, even when both
	// mention the same constant value.
	g := func(n int64) Expr {
		return And(Lt(NewVar("qty", SortInt), Int(5)), Eq(x, Int(n)))
	}
	if Canon(g(5)).Key() != Canon(g(9)).Key() {
		t.Error("constants of an untainted component should abstract despite taint elsewhere")
	}
	// Tainted-component constants keep their relative magnitudes: with the
	// smallest bound already at zero the shift is the identity, so the
	// other bound's value must show in the key.
	h := func(n int64) Expr {
		qty := NewVar("qty", SortInt)
		return And(Gt(qty, Int(0)), Lt(qty, Int(n)), Eq(x, Int(5)))
	}
	if Canon(h(5)).Key() == Canon(h(6)).Key() {
		t.Error("tainted-component constant gaps must stay observable")
	}
}

func TestCanonShiftNormalization(t *testing.T) {
	// Order comparisons taint a component, but when every atom is
	// offset-invariant the whole component can be shifted uniformly:
	// candidates whose row keys differ by a constant offset share a key.
	mk := func(base int64) Expr {
		id := NewVar("A1.id", SortInt)
		lo := NewVar("A1.rng.lo", SortInt)
		return And(
			Ge(id, Int(base)),
			Le(id, Int(base+4)),
			Eq(lo, Int(base)),
			Lt(lo, Add(id, Int(1))),
			Read(NewArray("A1.rows", SortInt), id),
		)
	}
	c10, c73 := Canon(mk(10)), Canon(mk(73))
	if c10.Key() != c73.Key() {
		t.Fatalf("offset-equivalent formulas got distinct keys:\n%s\n%s", c10.Key(), c73.Key())
	}
	if len(c10.shifted) == 0 {
		t.Fatal("expected a shift-normalized component")
	}

	// Shapes that are not offset-invariant block the shift.
	x := NewVar("x", SortInt)
	y := NewVar("y", SortInt)
	for i, pair := range [][2]Expr{
		{Lt(Mul(x, Int(2)), Int(10)), Lt(Mul(x, Int(2)), Int(14))},
		{Lt(Sub(x, y), Int(3)), Lt(Sub(x, y), Int(8))},
	} {
		if Canon(pair[0]).Key() == Canon(pair[1]).Key() {
			t.Errorf("case %d: non-offset-invariant formulas share a key", i)
		}
	}
}

func TestCanonShiftModelTranslation(t *testing.T) {
	// A model found for the shift-normalized formula must translate back
	// (values moved by +δ) to a model of the original.
	id := NewVar("A1.id", SortInt)
	f := And(
		Ge(id, Int(100)),
		Lt(id, Int(105)),
		Read(NewArray("A1.rows", SortInt).Store(id, true), Add(id, Int(0))),
	)
	c := Canon(f)
	if len(c.shifted) == 0 {
		t.Fatalf("expected shift normalization to apply: %s", c.Key())
	}

	cid := c.Rename["A1.id"]
	cm := NewModel()
	cm.Vars[cid] = IntValue(2) // satisfies 0 <= id' < 5 in the shifted space
	cm.Arrays[c.Rename["A1.rows"]] = map[string]bool{}
	if !Eval(c.Expr, cm).B {
		t.Fatalf("canonical model does not satisfy canonical formula %s", c.Key())
	}
	om := TranslateModel(cm, c)
	if !Eval(f, om).B {
		t.Fatalf("translated model does not satisfy original formula: %s", om)
	}
	if om.Vars["A1.id"].I != 102 {
		t.Errorf("shifted value not translated back: %s", om)
	}

	// Array entry keys in a shifted component move with the variables.
	cm2 := NewModel()
	cm2.Vars[cid] = IntValue(3)
	cm2.Arrays[c.Rename["A1.rows"]] = map[string]bool{IntValue(3).String(): true}
	om2 := TranslateModel(cm2, c)
	if !om2.Arrays["A1.rows"][IntValue(103).String()] {
		t.Errorf("array entry key not shifted back: %v", om2.Arrays)
	}
}

func TestCanonTranslateModelConstants(t *testing.T) {
	x := NewVar("A1.id", SortInt)
	y := NewVar("A2.id", SortInt)
	s := NewVar("A1.code", SortString)
	f := And(
		Eq(x, Int(42)),
		Ne(y, x),
		Eq(s, Str("acct")),
		Read(NewArray("A1.rows", SortInt), x),
	)
	c := Canon(f)
	if len(c.ints) == 0 {
		t.Fatal("expected constant abstraction to apply")
	}
	canon42 := c.ints[c.abs[c.Rename["A1.id"]]][42]
	canonAcct := c.strs[c.abs[c.Rename["A1.code"]]]["acct"]
	if canon42 == 0 || canonAcct == "" {
		t.Fatalf("constants not mapped in their components: %v %v", c.ints, c.strs)
	}

	// A satisfying model for the canonical formula: x' bound to canonical
	// 42, y' to a value outside the constant map (exercising fresh-value
	// allocation on the way back), s' to canonical "acct", and the array
	// holding x's value.
	cm := NewModel()
	cm.Vars[c.Rename["A1.id"]] = IntValue(canon42)
	cm.Vars[c.Rename["A2.id"]] = IntValue(canon42 + 500)
	cm.Vars[c.Rename["A1.code"]] = StrValue(canonAcct)
	cm.Arrays[c.Rename["A1.rows"]] = map[string]bool{IntValue(canon42).String(): true}
	if !Eval(c.Expr, cm).B {
		t.Fatal("canonical model does not satisfy canonical formula")
	}

	om := TranslateModel(cm, c)
	if !Eval(f, om).B {
		t.Fatalf("translated model does not satisfy original formula: %s", om)
	}
	if om.Vars["A1.id"].I != 42 || om.Vars["A1.code"].Str != "acct" {
		t.Errorf("mapped constants not restored: %s", om)
	}
	if om.Vars["A2.id"].I == 42 {
		t.Error("fresh value collided with an original constant")
	}
	if !om.Arrays["A1.rows"][IntValue(42).String()] {
		t.Errorf("array entry key not translated: %v", om.Arrays)
	}
	if om2 := TranslateModel(cm, c); om.String() != om2.String() {
		t.Error("translation is not deterministic")
	}
}

func TestCanonDeterministicAcrossCalls(t *testing.T) {
	x := NewVar("w", SortInt)
	f := Or(Eq(x, Int(1)), And(Ne(x, Int(2)), Lt(x, NewVar("z", SortInt))))
	k1 := Canon(f).Key()
	for i := 0; i < 50; i++ {
		if k := Canon(f).Key(); k != k1 {
			t.Fatalf("nondeterministic key on iteration %d:\n%s\n%s", i, k1, k)
		}
	}
}
