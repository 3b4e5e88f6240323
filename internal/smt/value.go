package smt

import (
	"cmp"
	"fmt"
	"math/big"
	"sort"
	"strings"
)

// Value is a concrete value of one of the four sorts.
type Value struct {
	S   Sort
	B   bool
	I   int64
	R   *big.Rat
	Str string
}

// BoolValue returns a Bool-sorted value.
func BoolValue(b bool) Value { return Value{S: SortBool, B: b} }

// IntValue returns an Int-sorted value.
func IntValue(i int64) Value { return Value{S: SortInt, I: i} }

// RealValue returns a Real-sorted value (r is copied).
func RealValue(r *big.Rat) Value { return Value{S: SortReal, R: new(big.Rat).Set(r)} }

// StrValue returns a String-sorted value.
func StrValue(s string) Value { return Value{S: SortString, Str: s} }

func (v Value) String() string {
	switch v.S {
	case SortBool:
		return fmt.Sprintf("%v", v.B)
	case SortInt:
		return fmt.Sprintf("%d", v.I)
	case SortReal:
		return v.R.RatString()
	case SortString:
		return fmt.Sprintf("%q", v.Str)
	}
	return "<invalid>"
}

// Rat returns the numeric value as an exact rational. It panics for
// non-numeric values.
func (v Value) Rat() *big.Rat {
	switch v.S {
	case SortInt:
		return new(big.Rat).SetInt64(v.I)
	case SortReal:
		return new(big.Rat).Set(v.R)
	}
	panic("smt: Rat() on non-numeric value")
}

// Equal reports whether two values are equal. Int and Real values compare
// numerically across sorts.
func (v Value) Equal(o Value) bool {
	if v.S == SortInt && o.S == SortInt {
		return v.I == o.I
	}
	if (v.S == SortInt || v.S == SortReal) && (o.S == SortInt || o.S == SortReal) {
		return v.Rat().Cmp(o.Rat()) == 0
	}
	if v.S != o.S {
		return false
	}
	switch v.S {
	case SortBool:
		return v.B == o.B
	case SortString:
		return v.Str == o.Str
	}
	return false
}

// Model maps variable names to concrete values and base arrays to their
// explicit entries. A model is the satisfying assignment an SMT solver
// returns on SAT; WeSEER embeds it in deadlock reports so developers can
// reproduce the deadlock (API inputs and initial database state).
type Model struct {
	Vars map[string]Value
	// Arrays maps a root array ID to its interpretation: explicit entries
	// keyed by the string form of the key value; absent keys are false.
	Arrays map[string]map[string]bool
}

// NewModel returns an empty model.
func NewModel() *Model {
	return &Model{Vars: map[string]Value{}, Arrays: map[string]map[string]bool{}}
}

// Lookup returns the value bound to name. Unbound variables receive a sort
// default (0, 0/1, "", false): any completion of a satisfying partial
// assignment for variables the formula does not constrain.
func (m *Model) Lookup(name string, s Sort) Value {
	if m != nil {
		if v, ok := m.Vars[name]; ok {
			return v
		}
	}
	switch s {
	case SortBool:
		return BoolValue(false)
	case SortInt:
		return IntValue(0)
	case SortReal:
		return RealValue(new(big.Rat))
	case SortString:
		return StrValue("")
	}
	panic("smt: unknown sort")
}

func (m *Model) String() string {
	if m == nil {
		return "<nil model>"
	}
	names := make([]string, 0, len(m.Vars))
	for n := range m.Vars {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", n, m.Vars[n])
	}
	return b.String()
}

// Eval evaluates e under model m. Unbound variables take sort defaults,
// and root-array reads of unlisted keys evaluate to false.
func Eval(e Expr, m *Model) Value {
	switch t := e.(type) {
	case BoolConst:
		return BoolValue(t.B)
	case IntConst:
		return IntValue(t.V)
	case RealConst:
		return RealValue(t.V)
	case StrConst:
		return StrValue(t.S)
	case Var:
		return m.Lookup(t.Name, t.S)
	case *Arith:
		l := Eval(t.L, m)
		if t.Op == OpNeg {
			r := l.Rat()
			r.Neg(r)
			return numValue(t.S, r)
		}
		r := Eval(t.R, m)
		res := new(big.Rat)
		switch t.Op {
		case OpAdd:
			res.Add(l.Rat(), r.Rat())
		case OpSub:
			res.Sub(l.Rat(), r.Rat())
		case OpMul:
			res.Mul(l.Rat(), r.Rat())
		default:
			panic("smt: unknown arith op")
		}
		return numValue(t.S, res)
	case *Cmp:
		l, r := Eval(t.L, m), Eval(t.R, m)
		return BoolValue(evalCmp(t.Op, l, r))
	case *NAry:
		for _, x := range t.Xs {
			if Eval(x, m).B != t.Conj {
				return BoolValue(!t.Conj)
			}
		}
		return BoolValue(t.Conj)
	case Not:
		return BoolValue(!Eval(t.X, m).B)
	case *Select:
		key := Eval(t.Key, m)
		return BoolValue(evalSelect(t.Arr, key, m))
	}
	panic(fmt.Sprintf("smt: Eval of unknown node %T", e))
}

func numValue(s Sort, r *big.Rat) Value {
	if s == SortInt {
		if !r.IsInt() {
			return Value{S: SortReal, R: r}
		}
		return IntValue(r.Num().Int64())
	}
	return Value{S: SortReal, R: r}
}

func evalCmp(op CmpOp, l, r Value) bool {
	if l.S == SortString {
		switch op {
		case EQ:
			return l.Str == r.Str
		case NE:
			return l.Str != r.Str
		}
		panic("smt: bad string cmp")
	}
	if l.S == SortBool {
		switch op {
		case EQ:
			return l.B == r.B
		case NE:
			return l.B != r.B
		}
		panic("smt: bad bool cmp")
	}
	var c int
	if l.S == SortInt && r.S == SortInt {
		c = cmp.Compare(l.I, r.I)
	} else {
		c = l.Rat().Cmp(r.Rat())
	}
	switch op {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	case GE:
		return c >= 0
	}
	panic("smt: unknown cmp op")
}

func evalSelect(a *Array, key Value, m *Model) bool {
	for cur := a; cur != nil; cur = cur.Parent {
		if cur.Parent == nil {
			if m == nil || m.Arrays == nil {
				return false
			}
			ent, ok := m.Arrays[cur.ID]
			if !ok {
				return false
			}
			return ent[key.String()]
		}
		if Eval(cur.StoreKey, m).Equal(key) {
			return cur.StoreVal
		}
	}
	return false
}
