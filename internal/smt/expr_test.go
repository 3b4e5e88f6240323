package smt

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestSortString(t *testing.T) {
	cases := map[Sort]string{
		SortBool: "Bool", SortInt: "Int", SortReal: "Real", SortString: "String",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("Sort %d: got %q, want %q", s, got, want)
		}
	}
}

func TestCmpOpNegate(t *testing.T) {
	pairs := map[CmpOp]CmpOp{EQ: NE, NE: EQ, LT: GE, LE: GT, GT: LE, GE: LT}
	for op, want := range pairs {
		if got := op.Negate(); got != want {
			t.Errorf("%s.Negate() = %s, want %s", op, got, want)
		}
		if got := op.Negate().Negate(); got != op {
			t.Errorf("double-negate of %s = %s", op, got)
		}
	}
}

func TestCmpOpNegateSemantics(t *testing.T) {
	// ¬(a op b) == (a op.Negate() b) for all int pairs.
	f := func(a, b int16) bool {
		for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
			l, r := IntValue(int64(a)), IntValue(int64(b))
			if evalCmp(op, l, r) == evalCmp(op.Negate(), l, r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCmpOpFlipSemantics(t *testing.T) {
	f := func(a, b int16) bool {
		for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
			l, r := IntValue(int64(a)), IntValue(int64(b))
			if evalCmp(op, l, r) != evalCmp(op.Flip(), r, l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAndOrFolding(t *testing.T) {
	x := NewVar("x", SortBool)
	if got := And(); got != (BoolConst{B: true}) {
		t.Errorf("And() = %v", got)
	}
	if got := Or(); got != (BoolConst{B: false}) {
		t.Errorf("Or() = %v", got)
	}
	if got := And(True, x); got != Expr(x) {
		t.Errorf("And(true,x) = %v", got)
	}
	if got := And(False, x); got != Expr(False) {
		t.Errorf("And(false,x) = %v", got)
	}
	if got := Or(True, x); got != Expr(True) {
		t.Errorf("Or(true,x) = %v", got)
	}
	if got := Or(False, x); got != Expr(x) {
		t.Errorf("Or(false,x) = %v", got)
	}
}

func TestAndFlattening(t *testing.T) {
	x, y, z := NewVar("x", SortBool), NewVar("y", SortBool), NewVar("z", SortBool)
	e := And(And(x, y), z)
	n, ok := e.(*NAry)
	if !ok || !n.Conj || len(n.Xs) != 3 {
		t.Fatalf("And(And(x,y),z) not flattened: %v", e)
	}
}

func TestNegate(t *testing.T) {
	x := NewVar("x", SortInt)
	e := Lt(x, Int(5))
	neg := Negate(e)
	c, ok := neg.(*Cmp)
	if !ok || c.Op != GE {
		t.Fatalf("Negate(x<5) = %v, want x>=5", neg)
	}
	if got := Negate(Negate(e)); got.String() != e.String() {
		t.Errorf("double negation: %v", got)
	}
	// String NE has no ordering complement.
	s := NewVar("s", SortString)
	se := Eq(s, Str("a"))
	if n, ok := Negate(se).(*Cmp); !ok || n.Op != NE {
		t.Errorf("Negate(s=\"a\") = %v", Negate(se))
	}
}

func TestMulNonlinearPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mul(x, y) should panic for two non-constant operands")
		}
	}()
	Mul(NewVar("x", SortInt), NewVar("y", SortInt))
}

func TestEvalArith(t *testing.T) {
	x := NewVar("x", SortInt)
	m := NewModel()
	m.Vars["x"] = IntValue(7)
	e := Add(Mul(Int(3), x), Int(1)) // 3x+1 = 22
	if v := Eval(e, m); v.I != 22 {
		t.Errorf("3*7+1 = %v", v)
	}
	e2 := Sub(Neg(x), Int(2)) // -x-2 = -9
	if v := Eval(e2, m); v.I != -9 {
		t.Errorf("-7-2 = %v", v)
	}
}

func TestEvalRealMixed(t *testing.T) {
	x := NewVar("x", SortReal)
	m := NewModel()
	m.Vars["x"] = RealValue(big.NewRat(1, 2))
	e := Add(x, Int(1))
	if e.Sort() != SortReal {
		t.Fatalf("Int+Real should be Real, got %s", e.Sort())
	}
	if v := Eval(e, m); v.Rat().Cmp(big.NewRat(3, 2)) != 0 {
		t.Errorf("1/2+1 = %v", v)
	}
}

func TestEvalCmpAcrossSorts(t *testing.T) {
	if !IntValue(2).Equal(RealValue(big.NewRat(2, 1))) {
		t.Error("2 (Int) should equal 2 (Real)")
	}
	m := NewModel()
	e := Eq(Int(3), Real(6, 2))
	if !Eval(e, m).B {
		t.Error("3 = 6/2 should hold")
	}
}

func TestEvalBoolStructure(t *testing.T) {
	x, y := NewVar("x", SortInt), NewVar("y", SortInt)
	m := NewModel()
	m.Vars["x"] = IntValue(4)
	m.Vars["y"] = IntValue(9)
	// (x+1 != 8) and (x > 3): paper's Sec. III example with syma=4.
	f := And(Ne(Add(x, Int(1)), Int(8)), Gt(x, Int(3)))
	if !Eval(f, m).B {
		t.Error("example formula should hold under x=4")
	}
	m.Vars["x"] = IntValue(7)
	if Eval(f, m).B {
		t.Error("x=7 violates x+1 != 8")
	}
	f2 := Or(Lt(y, Int(0)), Or(Negate(Gt(y, Int(5))), Eq(y, Int(9))))
	m.Vars["y"] = IntValue(9)
	if !Eval(f2, m).B {
		t.Error("implication should hold")
	}
}

func TestArrayStoreSelect(t *testing.T) {
	a := NewArray("m", SortInt)
	k := NewVar("k", SortInt)
	a1 := a.Store(Int(3), true)
	a2 := a1.Store(Int(5), false)
	m := NewModel()

	m.Vars["k"] = IntValue(3)
	if !Eval(Read(a2, k), m).B {
		t.Error("read after store(3,true) should be true")
	}
	m.Vars["k"] = IntValue(5)
	if Eval(Read(a2, k), m).B {
		t.Error("read after store(5,false) should be false")
	}
	m.Vars["k"] = IntValue(99)
	if Eval(Read(a2, k), m).B {
		t.Error("read of unconstrained root key defaults to false")
	}
	m.Arrays["m"] = map[string]bool{IntValue(99).String(): true}
	if !Eval(Read(a2, k), m).B {
		t.Error("root interpretation should supply key 99")
	}
}

func TestArrayShadowing(t *testing.T) {
	// A later store to the same key shadows the earlier one.
	a := NewArray("m", SortString)
	a1 := a.Store(Str("x"), true).Store(Str("x"), false)
	m := NewModel()
	if Eval(Read(a1, Str("x")), m).B {
		t.Error("latest store should win")
	}
}

func TestVarsCollection(t *testing.T) {
	x, y := NewVar("x", SortInt), NewVar("y", SortString)
	a := NewArray("arr", SortInt).Store(NewVar("z", SortInt), true)
	f := And(Lt(x, Int(3)), Eq(y, Str("s")), Read(a, NewVar("w", SortInt)))
	set := VarSet(f)
	for _, n := range []string{"x", "y", "z", "w"} {
		if _, ok := set[n]; !ok {
			t.Errorf("variable %s not collected", n)
		}
	}
	if len(set) != 4 {
		t.Errorf("collected %d vars, want 4: %v", len(set), set)
	}
}

func TestRename(t *testing.T) {
	x := NewVar("order_id", SortInt)
	a := NewArray("map1", SortInt).Store(x, true)
	f := And(Gt(x, Int(0)), Read(a, x))
	g := Rename(f, func(s string) string { return "A1." + s })
	set := VarSet(g)
	if _, ok := set["A1.order_id"]; !ok {
		t.Fatalf("rename failed: %v", set)
	}
	if _, ok := set["order_id"]; ok {
		t.Fatalf("old name still present: %v", set)
	}
	sel := g.(*NAry).Xs[1].(*Select)
	if sel.Arr.ID != "A1.map1" {
		t.Errorf("array id not renamed: %s", sel.Arr.ID)
	}
	// Original untouched.
	if VarSet(f)["order_id"] != SortInt {
		t.Error("original formula mutated")
	}
}

func TestRenamePreservesSemantics(t *testing.T) {
	f := func(xv, yv int16) bool {
		x, y := NewVar("x", SortInt), NewVar("y", SortInt)
		e := Or(Lt(x, y), Eq(Add(x, Int(2)), y))
		m := NewModel()
		m.Vars["x"] = IntValue(int64(xv))
		m.Vars["y"] = IntValue(int64(yv))
		m2 := NewModel()
		m2.Vars["p.x"] = IntValue(int64(xv))
		m2.Vars["p.y"] = IntValue(int64(yv))
		r := Rename(e, func(s string) string { return "p." + s })
		return Eval(e, m).B == Eval(r, m2).B
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSimplifyConstFold(t *testing.T) {
	e := And(Lt(Int(1), Int(2)), Gt(Add(Int(2), Int(2)), Int(3)))
	if got := Simplify(e); got != Expr(True) {
		t.Errorf("Simplify = %v, want true", got)
	}
	e2 := Or(Eq(Str("a"), Str("b")), Eq(NewVar("s", SortString), Str("c")))
	s := Simplify(e2)
	if c, ok := s.(*Cmp); !ok || c.Op != EQ {
		t.Errorf("Simplify should strip false disjunct: %v", s)
	}
}

func TestSimplifyPreservesSemantics(t *testing.T) {
	f := func(xv int16, b bool) bool {
		x := NewVar("x", SortInt)
		p := NewVar("p", SortBool)
		e := Or(And(Gt(Add(x, Int(3)), Int(10)), p), And(Le(x, Int(7)), Eq(Int(1), Int(1))))
		m := NewModel()
		m.Vars["x"] = IntValue(int64(xv))
		m.Vars["p"] = BoolValue(b)
		return Eval(e, m).B == Eval(Simplify(e), m).B
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestModelLookupDefaults(t *testing.T) {
	m := NewModel()
	if v := m.Lookup("missing", SortInt); v.I != 0 {
		t.Errorf("default int = %v", v)
	}
	if v := m.Lookup("missing", SortString); v.Str != "" {
		t.Errorf("default string = %v", v)
	}
	var nilModel *Model
	if v := nilModel.Lookup("x", SortBool); v.B {
		t.Errorf("nil model default bool = %v", v)
	}
}

func TestIsConst(t *testing.T) {
	if !IsConst(Add(Int(1), Int(2))) {
		t.Error("1+2 is const")
	}
	if IsConst(Add(Int(1), NewVar("x", SortInt))) {
		t.Error("1+x is not const")
	}
}
