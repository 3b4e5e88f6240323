// Package smt provides the first-order expression language shared by
// WeSEER's concolic execution engine, lock modeling, and SMT solver.
//
// The language covers exactly the fragment the paper's analyzer emits
// (Figs. 7 and 9 of the ICDE'23 paper): Boolean combinations of linear
// numeric comparisons over Int and Real sorts, string (dis)equality, and
// reads over Boolean arrays used to model containers (Alg. 1).
package smt

import (
	"fmt"
	"math/big"
	"strconv"
)

// Sort identifies the type of an expression.
type Sort uint8

// The four sorts of WeSEER's logic. They mirror the paper's use of Z3
// Int, Float (for BigDecimal), String, and Bool.
const (
	SortBool Sort = iota
	SortInt
	SortReal
	SortString
)

func (s Sort) String() string {
	switch s {
	case SortBool:
		return "Bool"
	case SortInt:
		return "Int"
	case SortReal:
		return "Real"
	case SortString:
		return "String"
	default:
		return fmt.Sprintf("Sort(%d)", uint8(s))
	}
}

// CmpOp is a comparison operator in the Fig. 7 grammar.
type CmpOp uint8

// Comparison operators. Strings support only EQ and NE.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", uint8(op))
	}
}

// Negate returns the complementary operator: ¬(a op b) == a op.Negate() b.
func (op CmpOp) Negate() CmpOp {
	switch op {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	}
	panic("smt: unknown CmpOp")
}

// Flip returns the operator with operands swapped: a op b == b op.Flip() a.
func (op CmpOp) Flip() CmpOp {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default:
		return op
	}
}

// Expr is a symbolic expression node. Expressions are immutable; sharing
// subtrees is safe and encouraged.
type Expr interface {
	Sort() Sort
	String() string
}

// ---------------------------------------------------------------------------
// Constants

// BoolConst is a Boolean literal.
type BoolConst struct{ B bool }

// IntConst is a 64-bit integer literal.
type IntConst struct{ V int64 }

// RealConst is an exact rational literal (models the paper's Z3 floats
// used for Java BigDecimal, but without rounding artifacts).
type RealConst struct{ V *big.Rat }

// StrConst is a string literal.
type StrConst struct{ S string }

// Sort implements Expr.
func (BoolConst) Sort() Sort { return SortBool }

// Sort implements Expr.
func (IntConst) Sort() Sort { return SortInt }

// Sort implements Expr.
func (RealConst) Sort() Sort { return SortReal }

// Sort implements Expr.
func (StrConst) Sort() Sort { return SortString }

func (c BoolConst) String() string { return strconv.FormatBool(c.B) }
func (c IntConst) String() string  { return strconv.FormatInt(c.V, 10) }
func (c RealConst) String() string { return c.V.RatString() }
func (c StrConst) String() string  { return strconv.Quote(c.S) }

// True and False are the Boolean constants.
var (
	True  = BoolConst{B: true}
	False = BoolConst{B: false}
)

// Int returns an integer constant expression.
func Int(v int64) Expr { return IntConst{V: v} }

// Real returns a rational constant expression from a numerator/denominator.
func Real(num, den int64) Expr { return RealConst{V: big.NewRat(num, den)} }

// RealFromRat returns a rational constant from a *big.Rat (copied).
func RealFromRat(r *big.Rat) Expr { return RealConst{V: new(big.Rat).Set(r)} }

// Str returns a string constant expression.
func Str(s string) Expr { return StrConst{S: s} }

// Bool returns a Boolean constant expression.
func Bool(b bool) Expr { return BoolConst{B: b} }

// ---------------------------------------------------------------------------
// Variables

// Var is a symbolic variable. Names are globally meaningful: the concolic
// engine uses dotted paths such as "A1.order_id" or "A1.res4.row0.p.ID".
type Var struct {
	Name string
	S    Sort
}

// Sort implements Expr.
func (v Var) Sort() Sort     { return v.S }
func (v Var) String() string { return v.Name }

// NewVar returns a variable expression of the given sort.
func NewVar(name string, s Sort) Var { return Var{Name: name, S: s} }

// ---------------------------------------------------------------------------
// Arithmetic

// ArithOp is an arithmetic operator for numeric expressions.
type ArithOp uint8

// Arithmetic operators. Mul requires at least one constant operand so that
// all numeric expressions remain linear, matching the solvable fragment.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpNeg
)

func (op ArithOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpNeg:
		return "neg"
	default:
		return fmt.Sprintf("ArithOp(%d)", uint8(op))
	}
}

// Arith is a numeric operation node. For OpNeg, R is nil.
type Arith struct {
	Op   ArithOp
	L, R Expr
	S    Sort
}

// Sort implements Expr.
func (a *Arith) Sort() Sort { return a.S }

func (a *Arith) String() string { return exprString(a) }

func numSort(l, r Expr) Sort {
	if l.Sort() == SortReal || (r != nil && r.Sort() == SortReal) {
		return SortReal
	}
	return SortInt
}

func checkNumeric(e Expr) {
	if e.Sort() != SortInt && e.Sort() != SortReal {
		panic(fmt.Sprintf("smt: non-numeric operand %s of sort %s", e, e.Sort()))
	}
}

// Add returns l + r.
func Add(l, r Expr) Expr {
	checkNumeric(l)
	checkNumeric(r)
	return &Arith{Op: OpAdd, L: l, R: r, S: numSort(l, r)}
}

// Sub returns l - r.
func Sub(l, r Expr) Expr {
	checkNumeric(l)
	checkNumeric(r)
	return &Arith{Op: OpSub, L: l, R: r, S: numSort(l, r)}
}

// Mul returns l * r. At least one operand must be constant to keep the
// expression linear; Mul panics otherwise.
func Mul(l, r Expr) Expr {
	checkNumeric(l)
	checkNumeric(r)
	if !isNumConst(l) && !isNumConst(r) {
		panic("smt: nonlinear multiplication is outside the supported fragment")
	}
	return &Arith{Op: OpMul, L: l, R: r, S: numSort(l, r)}
}

// Neg returns -x.
func Neg(x Expr) Expr {
	checkNumeric(x)
	return &Arith{Op: OpNeg, L: x, S: x.Sort()}
}

func isNumConst(e Expr) bool {
	switch e.(type) {
	case IntConst, RealConst:
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Comparisons

// Cmp is a comparison atom between two operands of compatible sorts.
// String operands admit only EQ and NE, per the Fig. 7 grammar.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Sort implements Expr.
func (*Cmp) Sort() Sort { return SortBool }

func (c *Cmp) String() string { return exprString(c) }

// Compare returns the comparison atom (l op r), validating sorts.
func Compare(op CmpOp, l, r Expr) Expr {
	ls, rs := l.Sort(), r.Sort()
	switch {
	case ls == SortString || rs == SortString:
		if ls != SortString || rs != SortString {
			panic("smt: comparing string with non-string")
		}
		if op != EQ && op != NE {
			panic("smt: strings support only = and !=")
		}
	case ls == SortBool || rs == SortBool:
		if ls != SortBool || rs != SortBool {
			panic("smt: comparing bool with non-bool")
		}
		if op != EQ && op != NE {
			panic("smt: bools support only = and !=")
		}
	default:
		checkNumeric(l)
		checkNumeric(r)
	}
	return &Cmp{Op: op, L: l, R: r}
}

// Eq returns l = r.
func Eq(l, r Expr) Expr { return Compare(EQ, l, r) }

// Ne returns l != r.
func Ne(l, r Expr) Expr { return Compare(NE, l, r) }

// Lt returns l < r.
func Lt(l, r Expr) Expr { return Compare(LT, l, r) }

// Le returns l <= r.
func Le(l, r Expr) Expr { return Compare(LE, l, r) }

// Gt returns l > r.
func Gt(l, r Expr) Expr { return Compare(GT, l, r) }

// Ge returns l >= r.
func Ge(l, r Expr) Expr { return Compare(GE, l, r) }

// ---------------------------------------------------------------------------
// Boolean connectives

// NAry is an n-ary Boolean connective (conjunction or disjunction).
type NAry struct {
	Conj bool // true: And, false: Or
	Xs   []Expr
}

// Sort implements Expr.
func (*NAry) Sort() Sort { return SortBool }

func (n *NAry) String() string { return exprString(n) }

// Not is Boolean negation.
type Not struct{ X Expr }

// Sort implements Expr.
func (Not) Sort() Sort       { return SortBool }
func (n Not) String() string { return exprString(n) }

// And returns the conjunction of xs, flattening nested conjunctions and
// folding constants. And() == True.
func And(xs ...Expr) Expr { return nary(true, xs) }

// Or returns the disjunction of xs, flattening nested disjunctions and
// folding constants. Or() == False.
func Or(xs ...Expr) Expr { return nary(false, xs) }

func nary(conj bool, xs []Expr) Expr {
	out := make([]Expr, 0, len(xs))
	for _, x := range xs {
		if x == nil {
			continue
		}
		if x.Sort() != SortBool {
			panic(fmt.Sprintf("smt: non-bool operand %s in connective", x))
		}
		if c, ok := x.(BoolConst); ok {
			if c.B == conj {
				continue // identity element
			}
			return BoolConst{B: !conj} // absorbing element
		}
		if n, ok := x.(*NAry); ok && n.Conj == conj {
			out = append(out, n.Xs...)
			continue
		}
		out = append(out, x)
	}
	switch len(out) {
	case 0:
		return BoolConst{B: conj}
	case 1:
		return out[0]
	}
	return &NAry{Conj: conj, Xs: out}
}

// Negate returns the logical negation of x, folding constants and double
// negations.
func Negate(x Expr) Expr {
	if x.Sort() != SortBool {
		panic("smt: negating non-bool")
	}
	switch t := x.(type) {
	case BoolConst:
		return BoolConst{B: !t.B}
	case Not:
		return t.X
	case *Cmp:
		if t.L.Sort() != SortString && t.L.Sort() != SortBool {
			return &Cmp{Op: t.Op.Negate(), L: t.L, R: t.R}
		}
		if t.Op == EQ {
			return &Cmp{Op: NE, L: t.L, R: t.R}
		}
		return &Cmp{Op: EQ, L: t.L, R: t.R}
	}
	return Not{X: x}
}

// ---------------------------------------------------------------------------
// Array theory (container modeling, Alg. 1)

// Array is a versioned Boolean array term: array<KeySort, Bool>. The zero
// version of an array is a root (Parent == nil) whose contents are
// unconstrained; each Store creates a new version. Arrays model the
// existence sets of symbolic containers per Alg. 1 of the paper.
type Array struct {
	ID      string // unique root id, e.g. "map7"
	KeySort Sort
	Version int
	Parent  *Array // nil for the root version
	// For non-root versions, the single store applied on top of Parent.
	StoreKey Expr
	StoreVal bool
}

// NewArray returns the root version of a fresh Boolean array.
func NewArray(id string, keySort Sort) *Array {
	return &Array{ID: id, KeySort: keySort}
}

// Store returns a new array version with key mapped to val.
func (a *Array) Store(key Expr, val bool) *Array {
	if key.Sort() != a.KeySort {
		panic(fmt.Sprintf("smt: store key sort %s != array key sort %s", key.Sort(), a.KeySort))
	}
	return &Array{
		ID:       a.ID,
		KeySort:  a.KeySort,
		Version:  a.Version + 1,
		Parent:   a,
		StoreKey: key,
		StoreVal: val,
	}
}

func (a *Array) String() string {
	var w writer
	w.array(a)
	return string(w.buf)
}

// Select is the Boolean expression read(Arr, Key).
type Select struct {
	Arr *Array
	Key Expr
}

// Sort implements Expr.
func (*Select) Sort() Sort { return SortBool }

func (s *Select) String() string { return exprString(s) }

// Read returns the Boolean expression read(a, key).
func Read(a *Array, key Expr) Expr {
	if key.Sort() != a.KeySort {
		panic(fmt.Sprintf("smt: read key sort %s != array key sort %s", key.Sort(), a.KeySort))
	}
	return &Select{Arr: a, Key: key}
}
