package smt

// This file provides structural utilities over expressions: variable
// collection, renaming (used to distinguish transaction instances, e.g.
// prefixing every variable of a trace with "A1."), and constant folding.

// Vars appends the names of all variables occurring in e to the set.
func Vars(e Expr, set map[string]Sort) {
	switch t := e.(type) {
	case Var:
		set[t.Name] = t.S
	case *Arith:
		Vars(t.L, set)
		if t.R != nil {
			Vars(t.R, set)
		}
	case *Cmp:
		Vars(t.L, set)
		Vars(t.R, set)
	case *NAry:
		for _, x := range t.Xs {
			Vars(x, set)
		}
	case Not:
		Vars(t.X, set)
	case *Select:
		Vars(t.Key, set)
		for cur := t.Arr; cur != nil; cur = cur.Parent {
			if cur.StoreKey != nil {
				Vars(cur.StoreKey, set)
			}
		}
	}
}

// VarSet returns the set of variables occurring in any of the expressions.
func VarSet(es ...Expr) map[string]Sort {
	set := map[string]Sort{}
	for _, e := range es {
		Vars(e, set)
	}
	return set
}

// Rename returns e with every variable name passed through f. Array IDs are
// renamed as well, so two renamed copies of the same trace have independent
// container states.
func Rename(e Expr, f func(string) string) Expr {
	return rename(e, f, map[*Array]*Array{})
}

func rename(e Expr, f func(string) string, arrs map[*Array]*Array) Expr {
	switch t := e.(type) {
	case BoolConst, IntConst, RealConst, StrConst:
		return e
	case Var:
		return Var{Name: f(t.Name), S: t.S}
	case *Arith:
		var r Expr
		if t.R != nil {
			r = rename(t.R, f, arrs)
		}
		return &Arith{Op: t.Op, L: rename(t.L, f, arrs), R: r, S: t.S}
	case *Cmp:
		return &Cmp{Op: t.Op, L: rename(t.L, f, arrs), R: rename(t.R, f, arrs)}
	case *NAry:
		xs := make([]Expr, len(t.Xs))
		for i, x := range t.Xs {
			xs[i] = rename(x, f, arrs)
		}
		return &NAry{Conj: t.Conj, Xs: xs}
	case Not:
		return Not{X: rename(t.X, f, arrs)}
	case *Select:
		return &Select{Arr: renameArray(t.Arr, f, arrs), Key: rename(t.Key, f, arrs)}
	}
	panic("smt: Rename of unknown node")
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
