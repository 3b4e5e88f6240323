package smt

// This file provides structural utilities over expressions: variable
// collection, renaming (used to distinguish transaction instances, e.g.
// prefixing every variable of a trace with "A1."), and constant folding.

import "slices"

// Vars appends every occurrence of a variable in e to dst, in a fixed
// walk order.
func Vars(dst []Var, e Expr) []Var {
	switch t := e.(type) {
	case Var:
		dst = append(dst, t)
	case *Arith:
		dst = Vars(dst, t.L)
		if t.R != nil {
			dst = Vars(dst, t.R)
		}
	case *Cmp:
		dst = Vars(Vars(dst, t.L), t.R)
	case *NAry:
		for _, x := range t.Xs {
			dst = Vars(dst, x)
		}
	case Not:
		dst = Vars(dst, t.X)
	case *Select:
		dst = Vars(dst, t.Key)
		for cur := t.Arr; cur != nil; cur = cur.Parent {
			if cur.StoreKey != nil {
				dst = Vars(dst, cur.StoreKey)
			}
		}
	}
	return dst
}

// VarSet returns the set of variables occurring in any of the expressions,
// each with the sort of its last occurrence.
func VarSet(es ...Expr) map[string]Sort {
	set := map[string]Sort{}
	var occ []Var
	for _, e := range es {
		occ = Vars(occ[:0], e)
		for _, v := range occ {
			set[v.Name] = v.S
		}
	}
	return set
}

// VarNames returns the names of the variables occurring in e, each once,
// in first-occurrence order.
func VarNames(e Expr) []string {
	occ := Vars(nil, e)
	names := make([]string, 0, len(occ))
	for _, v := range occ {
		if !slices.Contains(names, v.Name) {
			names = append(names, v.Name)
		}
	}
	return names
}

// Rename returns e with every variable name passed through f. Array IDs are
// renamed as well, so two renamed copies of the same trace have independent
// container states. A subtree whose names f leaves unchanged is e's own,
// not a copy: expressions are immutable.
func Rename(e Expr, f func(string) string) Expr {
	return rename(e, f, map[*Array]*Array{})
}

func rename(e Expr, f func(string) string, arrs map[*Array]*Array) Expr {
	switch t := e.(type) {
	case BoolConst, IntConst, RealConst, StrConst:
		return e
	case Var:
		if n := f(t.Name); n != t.Name {
			return Var{Name: n, S: t.S}
		}
	case *Arith:
		var r Expr
		if t.R != nil {
			r = rename(t.R, f, arrs)
		}
		if l := rename(t.L, f, arrs); l != t.L || r != t.R {
			return &Arith{Op: t.Op, L: l, R: r, S: t.S}
		}
	case *Cmp:
		if l, r := rename(t.L, f, arrs), rename(t.R, f, arrs); l != t.L || r != t.R {
			return &Cmp{Op: t.Op, L: l, R: r}
		}
	case *NAry:
		var xs []Expr // nil while every operand so far is unchanged
		for i, x := range t.Xs {
			if y := rename(x, f, arrs); xs != nil || y != x {
				if xs == nil {
					xs = append(make([]Expr, 0, len(t.Xs)), t.Xs[:i]...)
				}
				xs = append(xs, y)
			}
		}
		if xs != nil {
			return &NAry{Conj: t.Conj, Xs: xs}
		}
	case Not:
		if x := rename(t.X, f, arrs); x != t.X {
			return Not{X: x}
		}
	case *Select:
		return &Select{Arr: renameArray(t.Arr, f, arrs), Key: rename(t.Key, f, arrs)}
	default:
		panic("smt: Rename of unknown node")
	}
	return e
}

func renameArray(a *Array, f func(string) string, arrs map[*Array]*Array) *Array {
	if a == nil {
		return nil
	}
	if r, ok := arrs[a]; ok {
		return r
	}
	r := &Array{
		ID:       f(a.ID),
		KeySort:  a.KeySort,
		Version:  a.Version,
		Parent:   renameArray(a.Parent, f, arrs),
		StoreVal: a.StoreVal,
	}
	if a.StoreKey != nil {
		r.StoreKey = rename(a.StoreKey, f, arrs)
	}
	arrs[a] = r
	return r
}

// IsConst reports whether e contains no variables or array reads.
func IsConst(e Expr) bool {
	switch t := e.(type) {
	case BoolConst, IntConst, RealConst, StrConst:
		return true
	case Var:
		return false
	case *Arith:
		if t.R != nil && !IsConst(t.R) {
			return false
		}
		return IsConst(t.L)
	case *Cmp:
		return IsConst(t.L) && IsConst(t.R)
	case *NAry:
		for _, x := range t.Xs {
			if !IsConst(x) {
				return false
			}
		}
		return true
	case Not:
		return IsConst(t.X)
	case *Select:
		return false
	}
	panic("smt: IsConst of unknown node")
}

// Simplify performs constant folding on e. Boolean structure is already
// flattened by the And/Or constructors; Simplify additionally folds fully
// constant subtrees and prunes constant branches rebuilt after
// substitution.
func Simplify(e Expr) Expr {
	switch t := e.(type) {
	case *Arith:
		var l, r Expr
		l = Simplify(t.L)
		if t.R != nil {
			r = Simplify(t.R)
		}
		n := &Arith{Op: t.Op, L: l, R: r, S: t.S}
		if IsConst(l) && (r == nil || IsConst(r)) {
			return foldConst(n)
		}
		return n
	case *Cmp:
		l, r := Simplify(t.L), Simplify(t.R)
		n := &Cmp{Op: t.Op, L: l, R: r}
		if IsConst(l) && IsConst(r) {
			return foldConst(n)
		}
		return n
	case *NAry:
		xs := make([]Expr, len(t.Xs))
		for i, x := range t.Xs {
			xs[i] = Simplify(x)
		}
		return nary(t.Conj, xs)
	case Not:
		return Negate(Simplify(t.X))
	case *Select:
		return &Select{Arr: t.Arr, Key: Simplify(t.Key)}
	}
	return e
}

func foldConst(e Expr) Expr {
	v := Eval(e, nil)
	switch v.S {
	case SortBool:
		return BoolConst{B: v.B}
	case SortInt:
		return IntConst{V: v.I}
	case SortReal:
		return RealConst{V: v.R}
	case SortString:
		return StrConst{S: v.Str}
	}
	panic("smt: bad fold")
}
