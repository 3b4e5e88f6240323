package smt

// The string-based canonicalizer Canon replaced, kept test-side as the
// differential oracle: every sort key is the fmt-rendered string of a
// freshly copied, fully renamed operand tree. It is a verbatim snapshot
// (identifiers prefixed, the process-global localKey memo dropped), so
// it shares no code with the production Canon beyond the Expr types,
// Rename and itoa.

import (
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// oracleString is the nested-fmt.Sprintf rendering the String methods
// used before the single-pass writer.
func oracleString(e Expr) string {
	switch t := e.(type) {
	case BoolConst:
		return fmt.Sprintf("%v", t.B)
	case IntConst:
		return fmt.Sprintf("%d", t.V)
	case RealConst:
		return t.V.RatString()
	case StrConst:
		return fmt.Sprintf("%q", t.S)
	case Var:
		return t.Name
	case *Arith:
		if t.Op == OpNeg {
			return fmt.Sprintf("(- %s)", oracleString(t.L))
		}
		return fmt.Sprintf("(%s %s %s)", oracleString(t.L), t.Op, oracleString(t.R))
	case *Cmp:
		return fmt.Sprintf("(%s %s %s)", oracleString(t.L), t.Op, oracleString(t.R))
	case *NAry:
		op := "or"
		if t.Conj {
			op = "and"
		}
		parts := make([]string, len(t.Xs))
		for i, x := range t.Xs {
			parts[i] = oracleString(x)
		}
		return fmt.Sprintf("(%s %s)", op, strings.Join(parts, " "))
	case Not:
		return fmt.Sprintf("(not %s)", oracleString(t.X))
	case *Select:
		return fmt.Sprintf("read(%s, %s)", oracleArrayString(t.Arr), oracleString(t.Key))
	}
	panic("smt: oracleString of unknown node")
}

func oracleArrayString(a *Array) string {
	if a.Parent == nil {
		return a.ID
	}
	return fmt.Sprintf("write(%s, %s, %v)", oracleArrayString(a.Parent), oracleString(a.StoreKey), a.StoreVal)
}

// oracleLocalKey canonicalizes x in isolation (including its own component
// analysis) and returns its string form. The key is invariant under any
// renaming of an enclosing formula.
func oracleLocalKey(x Expr) string {
	m := oracleNewCanonMaps(oracleAnalyzeComponents(x))
	oracleCanonAssign(x, m)
	return oracleString(oracleApplyMaps(x, m))
}

// oracleCanon canonicalizes e as described in the package comment above.
func oracleCanon(e Expr) CanonResult {
	// Pass 1: order And/Or operands by their local shape — each operand
	// canonicalized in isolation. The local key is invariant under any
	// renaming of the whole formula, so two equivalent inputs sort their
	// operands identically even though their global first-occurrence
	// numberings disagree.
	e = oracleAcSort(e, oracleLocalKey)

	// The component partition is a function of the formula's atoms, so it
	// is unaffected by the operand reordering below — compute it once.
	comp := oracleAnalyzeComponents(e)

	// Pass 2..n: refine ties with the global numbering. Operands that
	// are locally equivalent (e.g. the same path condition instantiated
	// by each of the two transaction roles) get distinct keys once the
	// whole-formula assignment is applied, and that assignment is
	// equivariant under renamings of the input, so equivalent inputs
	// refine identically. Sort and renumber until a fixpoint (or a small
	// cap — oracleCanon stays a pure function either way).
	for i := 0; i < 4; i++ {
		m := oracleNewCanonMaps(comp)
		oracleCanonAssign(e, m)
		sorted := oracleAcSort(e, func(x Expr) string { return oracleString(oracleApplyMaps(x, m)) })
		if sorted == e {
			break
		}
		e = sorted
	}

	m := oracleNewCanonMaps(comp)
	oracleCanonAssign(e, m)
	canon := oracleApplyMaps(e, m)
	return CanonResult{Expr: canon, Rename: m.vars,
		abs: m.abs, ints: m.ints, strs: m.strs, shifted: m.shifted}
}

// ---------------------------------------------------------------------------
// Symbol oracleComponents

func oracleVarSym(name string) string { return "v:" + name }

// oracleCompInfo aggregates what a component's atoms observe about its values.
type oracleCompInfo struct {
	// tainted: some atom observes more than identity (order comparison,
	// arithmetic, Real sort) — rules out injective constant remapping.
	tainted bool
	// noShift: some atom's shape is not offset-invariant (multiplication,
	// negation, variable differences, several variables on one side) —
	// rules out the uniform-shift normalization too.
	noShift bool
	// hasAbs/minAbs track the directly-compared Int constants, whose
	// minimum anchors the shift.
	hasAbs bool
	minAbs int64
}

func (i *oracleCompInfo) merge(o *oracleCompInfo) {
	i.tainted = i.tainted || o.tainted
	i.noShift = i.noShift || o.noShift
	if o.hasAbs && (!i.hasAbs || o.minAbs < i.minAbs) {
		i.minAbs = o.minAbs
		i.hasAbs = true
	}
}

// oracleComponents is a union-find over variable and array-root symbols. Two
// symbols share a component when some atom mentions both.
type oracleComponents struct {
	parent map[string]string
	info   map[string]*oracleCompInfo // keyed by root; nil means no observations
}

func (c *oracleComponents) find(x string) string {
	p, ok := c.parent[x]
	if !ok || p == x {
		c.parent[x] = x
		return x
	}
	r := c.find(p)
	c.parent[x] = r
	return r
}

func (c *oracleComponents) union(a, b string) {
	ra, rb := c.find(a), c.find(b)
	if ra == rb {
		return
	}
	c.parent[ra] = rb
	if ia := c.info[ra]; ia != nil {
		delete(c.info, ra)
		if ib := c.info[rb]; ib != nil {
			ib.merge(ia)
		} else {
			c.info[rb] = ia
		}
	}
}

// link merges all syms into one component and folds the atom's
// observations into it.
func (c *oracleComponents) link(syms []string, facts oracleCompInfo) {
	if len(syms) == 0 {
		return
	}
	for _, s := range syms[1:] {
		c.union(syms[0], s)
	}
	root := c.find(syms[0])
	if i := c.info[root]; i != nil {
		i.merge(&facts)
	} else {
		f := facts
		c.info[root] = &f
	}
}

func (c *oracleComponents) tainted(root string) bool {
	i := c.info[root]
	return i != nil && i.tainted
}

// delta returns the shift for a tainted but offset-invariant component.
func (c *oracleComponents) delta(root string) (int64, bool) {
	i := c.info[root]
	if i == nil || !i.tainted || i.noShift || !i.hasAbs || i.minAbs == 0 {
		return 0, false
	}
	return i.minAbs, true
}

// oracleAnalyzeComponents partitions e's variables by walking its atoms.
func oracleAnalyzeComponents(e Expr) *oracleComponents {
	c := &oracleComponents{parent: map[string]string{}, info: map[string]*oracleCompInfo{}}
	oracleWalkAtoms(e, c)
	return c
}

func oracleWalkAtoms(e Expr, c *oracleComponents) {
	switch t := e.(type) {
	case BoolConst, Var:
		// A Boolean atom relates no Int/String variables.
	case *NAry:
		for _, x := range t.Xs {
			oracleWalkAtoms(x, c)
		}
	case Not:
		oracleWalkAtoms(t.X, c)
	case *Cmp:
		if t.L.Sort() == SortBool {
			// (Dis)equality over formulas observes truth values only;
			// each side's own atoms constrain their own oracleComponents.
			oracleWalkAtoms(t.L, c)
			oracleWalkAtoms(t.R, c)
			return
		}
		syms, bad := oracleTermSyms(t.L, nil)
		syms, bad2 := oracleTermSyms(t.R, syms)
		facts := oracleCompInfo{tainted: bad || bad2 || (t.Op != EQ && t.Op != NE)}
		oracleSideFacts(t.L, &facts)
		oracleSideFacts(t.R, &facts)
		c.link(syms, facts)
	case *Select:
		syms := []string{oracleVarSym(t.Arr.ID)}
		bad := t.Arr.KeySort == SortReal
		// Real-keyed arrays also block the shift: their model entry keys
		// are stored in string form that shiftKeyString cannot move.
		facts := oracleCompInfo{noShift: bad}
		for cur := t.Arr; cur != nil; cur = cur.Parent {
			if cur.StoreKey != nil {
				var b bool
				syms, b = oracleTermSyms(cur.StoreKey, syms)
				bad = bad || b
				oracleSideFacts(cur.StoreKey, &facts)
			}
		}
		syms, b := oracleTermSyms(t.Key, syms)
		oracleSideFacts(t.Key, &facts)
		facts.tainted = facts.tainted || bad || b
		c.link(syms, facts)
	default:
		panic("smt: oracleWalkAtoms of unknown node")
	}
}

// oracleSideFacts folds one comparison side (or array key) into the atom's
// facts: a lone Int constant is directly compared (and so shiftable by
// δ); a single positively-occurring variable plus constant offsets is
// offset-invariant; anything else rules the component out of shifting.
func oracleSideFacts(e Expr, f *oracleCompInfo) {
	if c, ok := e.(IntConst); ok {
		if !f.hasAbs || c.V < f.minAbs {
			f.minAbs = c.V
		}
		f.hasAbs = true
		return
	}
	if nv, ok := oracleSideShape(e); !ok || nv > 1 {
		f.noShift = true
	}
}

// oracleSideShape reports the number of variable occurrences in a term and
// whether every variable occurs with coefficient +1 (only Add, and Sub
// with a constant subtrahend). Such terms change by exactly δ under the
// shift v ↦ v+δ (or stay fixed when variable-free as a lone constant —
// handled by the caller). Real variables qualify: v ↦ v+δ with integral
// δ is an automorphism of the reals under order, equality, and constant
// offsets just as of the integers. Real *constants* do not — a
// fractional value cannot be folded into the integral δ.
func oracleSideShape(e Expr) (nvars int, ok bool) {
	switch t := e.(type) {
	case IntConst, StrConst:
		return 0, true
	case RealConst:
		return 0, false
	case Var:
		return 1, true
	case *Arith:
		switch t.Op {
		case OpAdd:
			ln, lok := oracleSideShape(t.L)
			rn, rok := oracleSideShape(t.R)
			return ln + rn, lok && rok && ln+rn == 1
		case OpSub:
			ln, lok := oracleSideShape(t.L)
			rn, rok := oracleSideShape(t.R)
			return ln + rn, lok && rok && ln == 1 && rn == 0
		default: // Mul, Neg: not offset-invariant
			return 0, false
		}
	default:
		return 0, false
	}
}

// oracleTermSyms appends the variable symbols occurring in the Int/String/Real
// term e to syms and reports whether the term forces its component
// concrete (arithmetic or Real sort). Constants contribute no symbol:
// occurrences of the same value in different atoms are related only
// through the atoms' variables.
func oracleTermSyms(e Expr, syms []string) ([]string, bool) {
	switch t := e.(type) {
	case IntConst, StrConst:
		return syms, false
	case RealConst:
		return syms, true
	case Var:
		return append(syms, oracleVarSym(t.Name)), t.S == SortReal
	case *Arith:
		syms, _ = oracleTermSyms(t.L, syms)
		if t.R != nil {
			syms, _ = oracleTermSyms(t.R, syms)
		}
		return syms, true
	default:
		panic("smt: oracleTermSyms of unknown node")
	}
}

// ---------------------------------------------------------------------------
// Canonical assignment

// oracleCanonMaps accumulates the canonical assignment for one expression:
// variable/array names always, constants per component in the atoms of
// untainted oracleComponents.
type oracleCanonMaps struct {
	vars    map[string]string
	abs     map[string]string          // canonical name -> component tag
	ints    map[string]map[int64]int64 // tag -> original -> canonical
	strs    map[string]map[string]string
	shifted map[string]int64 // canonical name -> component δ
	nextInt int64
	nextStr int
	comp    *oracleComponents
}

func oracleNewCanonMaps(comp *oracleComponents) *oracleCanonMaps {
	return &oracleCanonMaps{vars: map[string]string{}, abs: map[string]string{},
		shifted: map[string]int64{}, comp: comp}
}

// atomTag returns the component tag governing an atom's constants: the
// component root of the atom's first variable, or "" (keep constants
// concrete) when the atom has no variable or its component is tainted.
func (m *oracleCanonMaps) atomTag(atom Expr) string {
	sym := oracleFirstVarSym(atom)
	if sym == "" {
		return ""
	}
	root := m.comp.find(sym)
	if m.comp.tainted(root) {
		return ""
	}
	return root
}

// atomShift returns the δ to subtract from an atom's directly-compared
// constants when its component is shift-normalized.
func (m *oracleCanonMaps) atomShift(atom Expr) (int64, bool) {
	sym := oracleFirstVarSym(atom)
	if sym == "" {
		return 0, false
	}
	return m.comp.delta(m.comp.find(sym))
}

func oracleFirstVarSym(e Expr) string {
	switch t := e.(type) {
	case Var:
		return oracleVarSym(t.Name)
	case *Cmp:
		if s := oracleFirstVarSym(t.L); s != "" {
			return s
		}
		return oracleFirstVarSym(t.R)
	case *Arith:
		if s := oracleFirstVarSym(t.L); s != "" {
			return s
		}
		if t.R != nil {
			return oracleFirstVarSym(t.R)
		}
		return ""
	case *Select:
		return oracleVarSym(t.Arr.ID)
	default:
		return ""
	}
}

// oracleCanonAssign walks the formula depth-first, left to right, assigning
// canonical names (and, in untainted oracleComponents, canonical constants) on
// first occurrence. The walk mirrors oracleApplyMaps's node coverage.
func oracleCanonAssign(e Expr, m *oracleCanonMaps) {
	switch t := e.(type) {
	case BoolConst:
	case Var:
		// A Boolean variable used directly as an atom.
		m.assignVar(t.Name, t.S)
	case *NAry:
		for _, x := range t.Xs {
			oracleCanonAssign(x, m)
		}
	case Not:
		oracleCanonAssign(t.X, m)
	case *Cmp:
		if t.L.Sort() == SortBool {
			oracleCanonAssign(t.L, m)
			oracleCanonAssign(t.R, m)
			return
		}
		tag := m.atomTag(t)
		m.assignTerm(t.L, tag)
		m.assignTerm(t.R, tag)
	case *Select:
		tag := m.atomTag(t)
		m.assignVar(t.Arr.ID, t.Arr.KeySort)
		// Store keys newest-version-first, matching Array.String().
		for cur := t.Arr; cur != nil; cur = cur.Parent {
			if cur.StoreKey != nil {
				m.assignTerm(cur.StoreKey, tag)
			}
		}
		m.assignTerm(t.Key, tag)
	default:
		panic("smt: oracleCanon of unknown node")
	}
}

// assignTerm assigns the variables and (under a non-empty tag) the
// constants of one atom's term side.
func (m *oracleCanonMaps) assignTerm(e Expr, tag string) {
	switch t := e.(type) {
	case BoolConst, RealConst:
	case IntConst:
		if tag == "" {
			return
		}
		mm := m.ints[tag]
		if mm == nil {
			mm = map[int64]int64{}
			if m.ints == nil {
				m.ints = map[string]map[int64]int64{}
			}
			m.ints[tag] = mm
		}
		if _, ok := mm[t.V]; !ok {
			m.nextInt++
			mm[t.V] = m.nextInt
		}
	case StrConst:
		if tag == "" {
			return
		}
		mm := m.strs[tag]
		if mm == nil {
			mm = map[string]string{}
			if m.strs == nil {
				m.strs = map[string]map[string]string{}
			}
			m.strs[tag] = mm
		}
		if _, ok := mm[t.S]; !ok {
			mm[t.S] = "k" + strconv.Itoa(m.nextStr)
			m.nextStr++
		}
	case Var:
		m.assignVar(t.Name, t.S)
	case *Arith:
		m.assignTerm(t.L, tag)
		if t.R != nil {
			m.assignTerm(t.R, tag)
		}
	default:
		panic("smt: assignTerm of unknown node")
	}
}

// assignVar gives name a canonical name on first occurrence and records
// its component tag when abstracted (model translation needs that).
func (m *oracleCanonMaps) assignVar(name string, s Sort) {
	if _, ok := m.vars[name]; ok {
		return
	}
	// Embedding the index first keeps names short; the sort suffix makes
	// sort mismatches visible in the key.
	canon := "c" + strconv.Itoa(len(m.vars)) + ":" + s.String()
	m.vars[name] = canon
	if root := m.comp.find(oracleVarSym(name)); !m.comp.tainted(root) {
		m.abs[canon] = root
	} else if d, ok := m.comp.delta(root); ok {
		m.shifted[canon] = d
	}
}

// oracleApplyMaps rewrites e per the assignment: abstracted constant
// occurrences replaced, then variables and array roots renamed.
// Unassigned names and constants pass through unchanged.
func oracleApplyMaps(e Expr, m *oracleCanonMaps) Expr {
	if len(m.ints)+len(m.strs)+len(m.shifted) > 0 {
		e = oracleRewriteConsts(e, m, "")
	}
	return Rename(e, func(n string) string {
		if c, ok := m.vars[n]; ok {
			return c
		}
		return n
	})
}

// oracleRewriteConsts replaces constant occurrences per their atom's component
// map. tag is "" at the formula level and set on entering an atom.
func oracleRewriteConsts(e Expr, m *oracleCanonMaps, tag string) Expr {
	switch t := e.(type) {
	case BoolConst, RealConst, Var:
		return e
	case IntConst:
		if c, ok := m.ints[tag][t.V]; ok {
			return IntConst{V: c}
		}
		return e
	case StrConst:
		if c, ok := m.strs[tag][t.S]; ok {
			return StrConst{S: c}
		}
		return e
	case *Arith:
		var r Expr
		if t.R != nil {
			r = oracleRewriteConsts(t.R, m, tag)
		}
		return &Arith{Op: t.Op, L: oracleRewriteConsts(t.L, m, tag), R: r, S: t.S}
	case *Cmp:
		if t.L.Sort() != SortBool {
			tag = m.atomTag(t)
			if tag == "" {
				if d, ok := m.atomShift(t); ok {
					return &Cmp{Op: t.Op, L: oracleShiftSide(t.L, d), R: oracleShiftSide(t.R, d)}
				}
			}
		}
		return &Cmp{Op: t.Op, L: oracleRewriteConsts(t.L, m, tag), R: oracleRewriteConsts(t.R, m, tag)}
	case *NAry:
		xs := make([]Expr, len(t.Xs))
		for i, x := range t.Xs {
			xs[i] = oracleRewriteConsts(x, m, tag)
		}
		return &NAry{Conj: t.Conj, Xs: xs}
	case Not:
		return Not{X: oracleRewriteConsts(t.X, m, tag)}
	case *Select:
		tag = m.atomTag(t)
		if tag == "" {
			if d, ok := m.atomShift(t); ok {
				return &Select{Arr: oracleShiftArray(t.Arr, d), Key: oracleShiftSide(t.Key, d)}
			}
		}
		return &Select{Arr: oracleRewriteConstsArray(t.Arr, m, tag), Key: oracleRewriteConsts(t.Key, m, tag)}
	default:
		panic("smt: oracleRewriteConsts of unknown node")
	}
}

func oracleRewriteConstsArray(a *Array, m *oracleCanonMaps, tag string) *Array {
	if a == nil {
		return nil
	}
	r := &Array{
		ID:       a.ID,
		KeySort:  a.KeySort,
		Version:  a.Version,
		Parent:   oracleRewriteConstsArray(a.Parent, m, tag),
		StoreVal: a.StoreVal,
	}
	if a.StoreKey != nil {
		r.StoreKey = oracleRewriteConsts(a.StoreKey, m, tag)
	}
	return r
}

// oracleShiftSide applies a shift-normalized component's δ to one atom side: a
// lone Int constant is directly compared and moves by −δ; every other
// side shape allowed by oracleSideFacts (a variable plus constant offsets)
// tracks its variable, whose model value moves instead, so the side is
// kept verbatim — in particular the relative constants inside Arith stay
// concrete.
func oracleShiftSide(e Expr, d int64) Expr {
	if c, ok := e.(IntConst); ok {
		return IntConst{V: c.V - d}
	}
	return e
}

func oracleShiftArray(a *Array, d int64) *Array {
	if a == nil {
		return nil
	}
	r := &Array{
		ID:       a.ID,
		KeySort:  a.KeySort,
		Version:  a.Version,
		Parent:   oracleShiftArray(a.Parent, d),
		StoreVal: a.StoreVal,
	}
	if a.StoreKey != nil {
		r.StoreKey = oracleShiftSide(a.StoreKey, d)
	}
	return r
}

// oracleAcSort rebuilds e with every And/Or operand list stably sorted by key.
// It returns e itself (interface-equal) when nothing moved, which the
// fixpoint loop in oracleCanon relies on.
func oracleAcSort(e Expr, key func(Expr) string) Expr {
	switch t := e.(type) {
	case *NAry:
		xs := make([]Expr, len(t.Xs))
		changed := false
		for i, x := range t.Xs {
			xs[i] = oracleAcSort(x, key)
			if xs[i] != x {
				changed = true
			}
		}
		keys := make([]string, len(xs))
		for i, x := range xs {
			keys[i] = key(x)
		}
		if !sort.StringsAreSorted(keys) {
			changed = true
			idx := make([]int, len(xs))
			for i := range idx {
				idx[i] = i
			}
			sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
			sorted := make([]Expr, len(xs))
			for i, j := range idx {
				sorted[i] = xs[j]
			}
			xs = sorted
		}
		if !changed {
			return t
		}
		return &NAry{Conj: t.Conj, Xs: xs}
	case Not:
		if x := oracleAcSort(t.X, key); x != t.X {
			return Not{X: x}
		}
		return t
	case *Cmp:
		// Booleans admit =/!= over connectives, so recurse; term-level
		// nodes (Arith, Select keys) cannot contain And/Or.
		l, r := oracleAcSort(t.L, key), oracleAcSort(t.R, key)
		if l != t.L || r != t.R {
			return &Cmp{Op: t.Op, L: l, R: r}
		}
		return t
	default:
		return e
	}
}

// ---------------------------------------------------------------------------
// Differential checks

// syntheticModel binds every variable and array root of a canonical
// formula to a deterministic value. TranslateModel is a pure function of
// (model, CanonResult), so the model need not satisfy anything for two
// results to be compared through it.
func syntheticModel(canon Expr) *Model {
	m := NewModel()
	var roots func(e Expr)
	roots = func(e Expr) {
		switch t := e.(type) {
		case *NAry:
			for _, x := range t.Xs {
				roots(x)
			}
		case Not:
			roots(t.X)
		case *Cmp:
			roots(t.L)
			roots(t.R)
		case *Select:
			m.Arrays[t.Arr.ID] = map[string]bool{
				IntValue(1).String(): true, IntValue(40).String(): false,
				StrValue("k0").String(): true, StrValue("zz").String(): false,
			}
		}
	}
	roots(canon)
	vars := VarSet(canon)
	for i, n := range sortedKeys(vars) {
		switch vars[n] {
		case SortBool:
			m.Vars[n] = BoolValue(i%2 == 0)
		case SortInt:
			m.Vars[n] = IntValue(int64(i%5) + 1) // collides with canonical constants on purpose
		case SortReal:
			m.Vars[n] = RealValue(big.NewRat(int64(2*i+1), 2))
		case SortString:
			m.Vars[n] = StrValue("k" + strconv.Itoa(i%3))
		}
	}
	return m
}

// sameExpr reports node-for-node structural identity — what interning
// two fresh trees decides. (Intern itself is not used: the trees compared
// here share their RealConst pointers with f, and the interner hands a
// remembered original back as its own representative, so the second of
// two such trees would intern differently from the first.)
func sameExpr(a, b Expr) bool { return reflect.DeepEqual(a, b) }

// checkCanonAgainstOracle asserts, for one formula, everything the memo
// table relies on: the new Canon agrees with the string-based oracle on
// the canonical expression (node for node), the renaming and model
// translation; the writer renders what fmt rendered; and the shape-keyed
// path — Canon of the alpha-renamed formula, rebased — is indistinguishable
// from canonicalizing the formula itself.
func checkCanonAgainstOracle(t testing.TB, f Expr) {
	t.Helper()
	if got, want := f.String(), oracleString(f); got != want {
		t.Fatalf("writer and fmt disagree:\n got %s\nwant %s", got, want)
	}
	got, want := Canon(f), oracleCanon(f)
	if !sameExpr(got.Expr, want.Expr) {
		t.Fatalf("canonical expr differs from the oracle's for %s:\n got %s\nwant %s", f, got.Expr, want.Expr)
	}
	if got.Key() != oracleString(want.Expr) {
		t.Fatalf("lazy key %q is not the oracle's eager key %q", got.Key(), oracleString(want.Expr))
	}
	if !reflect.DeepEqual(got.Rename, want.Rename) {
		t.Fatalf("rename differs from the oracle's for %s:\n got %v\nwant %v", f, got.Rename, want.Rename)
	}
	m := syntheticModel(got.Expr)
	back := TranslateModel(m, got)
	if wantBack := TranslateModel(m, want); !reflect.DeepEqual(back, wantBack) {
		t.Fatalf("translated model differs from the oracle's for %s:\n got %v %v\nwant %v %v",
			f, back, back.Arrays, wantBack, wantBack.Arrays)
	}

	// The memo's own path: the Shape goes in, no renamed copy is made, and
	// the ShapeCanon some other formula of the shape produced — here a
	// renamed sibling, through a Shape whose scratch every earlier check has
	// used — serves f: same Expr, same key, and rebased onto f's names the
	// same renaming and translation.
	var sh Shape
	sh.Reset(f)
	warmShape.Reset(Rename(f, func(n string) string { return "B9!" + n }))
	if string(warmShape.Key()) != string(sh.Key()) {
		t.Fatalf("renaming changed the shape key of %s", f)
	}
	viaShape := warmShape.Canon()
	if e := viaShape.Expr(); !sameExpr(e, got.Expr) {
		t.Fatalf("Canon is not equivariant on %s:\n got %s\nwant %s", f, e, got.Expr)
	}
	if viaShape.Key() != got.Key() {
		t.Fatalf("shape key %q is not Canon's %q", viaShape.Key(), got.Key())
	}
	rebased := sh.Rebase(viaShape)
	if !reflect.DeepEqual(rebased.Rename, got.Rename) {
		t.Fatalf("composed rename differs for %s:\n got %v\nwant %v", f, rebased.Rename, got.Rename)
	}
	if viaBack := TranslateModel(m, rebased); !reflect.DeepEqual(viaBack, back) {
		t.Fatalf("model translated through the shape differs for %s:\n got %v\nwant %v", f, viaBack, back)
	}
}

// warmShape is checkCanonAgainstOracle's long-lived Shape: reusing it
// across formulas is what a pooled Shape in the memo table sees, so stale
// scratch would show as a differential failure.
var warmShape Shape

// genFormula decodes a byte string into a formula over the fragment the
// analyzer emits — linear Int/Real comparisons with offsets, string and
// Boolean (dis)equalities, reads over stored-to Boolean arrays, and/or/not
// nested up to five deep (Broadleaf's cycle formulas reach 5) — so the
// random differential test and FuzzCanon share one generator. The first
// byte picks the depth; exhausted input reads as zeros, which ends the
// recursion.
func genFormula(data []byte) Expr {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
	intVar := func() Expr { return NewVar("A1.i"+strconv.Itoa(next(4)), SortInt) }
	strVar := func() Expr { return NewVar("A2.s"+strconv.Itoa(next(3)), SortString) }
	realVar := func() Expr { return NewVar("r"+strconv.Itoa(next(2)), SortReal) }
	konst := func() Expr { return Int(int64(next(9)) - 2) }
	intTerm := func() Expr {
		switch next(7) {
		case 0:
			return intVar()
		case 1:
			return konst()
		case 2:
			return Add(intVar(), konst())
		case 3:
			return Sub(intVar(), konst())
		case 4:
			return Add(intVar(), intVar())
		case 5:
			return Mul(Int(int64(next(3))+1), intVar())
		default:
			return Neg(intVar())
		}
	}
	ops := []CmpOp{EQ, NE, LT, LE, GT, GE}
	atom := func() Expr {
		switch next(7) {
		case 0, 1:
			return Compare(ops[next(6)], intTerm(), intTerm())
		case 2:
			if next(2) == 0 {
				return Compare(ops[next(2)], strVar(), Str("k"+strconv.Itoa(next(4))))
			}
			return Compare(ops[next(2)], strVar(), strVar())
		case 3:
			if next(2) == 0 {
				return Compare(ops[next(6)], realVar(), Real(int64(next(7)), int64(next(3))+1))
			}
			return Compare(ops[next(6)], realVar(), Add(realVar(), konst()))
		case 4:
			arr := NewArray("A1.map"+strconv.Itoa(next(2)), SortInt)
			for n := next(3); n > 0; n-- {
				arr = arr.Store(intTerm(), next(2) == 0)
			}
			return Read(arr, intTerm())
		case 5:
			arr := NewArray("A2.set", SortString)
			if next(2) == 0 {
				arr = arr.Store(Str("k"+strconv.Itoa(next(4))), next(2) == 0)
			}
			return Read(arr, strVar())
		default:
			b := Expr(NewVar("p"+strconv.Itoa(next(2)), SortBool))
			if next(2) == 0 {
				b = Negate(b)
			}
			return b
		}
	}
	var gen func(depth int) Expr
	gen = func(depth int) Expr {
		if depth == 0 || next(3) == 0 {
			return atom()
		}
		kids := make([]Expr, 2+next(3))
		for i := range kids {
			kids[i] = gen(depth - 1)
		}
		switch next(4) {
		case 0:
			return Or(kids...)
		case 1:
			return Negate(Or(kids...))
		default:
			return And(kids...)
		}
	}
	return gen(1 + next(5))
}

// TestCanonMatchesOracleRandom runs the differential over generated
// formulas and over their mirrored, re-prefixed variants (the shapes the
// commutative and alpha normalizations exist for).
func TestCanonMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20260929))
	buf := make([]byte, 96)
	for iter := 0; iter < 1500; iter++ {
		rng.Read(buf)
		f := genFormula(buf)
		checkCanonAgainstOracle(t, f)
		if n, ok := f.(*NAry); ok {
			xs := append([]Expr(nil), n.Xs...)
			rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
			checkCanonAgainstOracle(t, &NAry{Conj: n.Conj, Xs: xs})
		}
	}
}

// TestShapeKeyIsInjective pins what makes the shape a sound memo key:
// formulas that are not renamings of one another never share one.
func TestShapeKeyIsInjective(t *testing.T) {
	x, y := NewVar("x", SortInt), NewVar("y", SortInt)
	rx := NewVar("x", SortReal)
	distinct := []Expr{
		Eq(x, y), Eq(x, x), Eq(y, Int(3)), Eq(rx, Int(3)), Eq(rx, Real(3, 1)),
		And(Eq(x, Int(1)), Eq(y, Int(2))), And(Eq(x, Int(2)), Eq(y, Int(1))),
		Or(Eq(x, Int(1)), Eq(y, Int(2))),
		Eq(NewVar("s", SortString), Str("1")), Eq(NewVar("s", SortString), Str("x y")),
		Read(NewArray("m", SortInt), x), Read(NewArray("m", SortInt).Store(x, true), x),
		Read(NewArray("m", SortInt).Store(x, false), x), Read(NewArray("m", SortInt).Store(y, true), x),
	}
	seen := map[string]Expr{}
	var sh Shape
	for _, f := range distinct {
		sh.Reset(f)
		if prev, ok := seen[string(sh.Key())]; ok {
			t.Errorf("%s and %s share shape key %q", prev, f, sh.Key())
		}
		seen[string(sh.Key())] = f
	}
}
