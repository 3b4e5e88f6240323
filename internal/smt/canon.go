package smt

// Formula canonicalization for solver-call memoization. Two conflict
// formulas produced for different cycles (or different transaction-
// instance pairings) are frequently identical up to variable naming:
// the same statement templates unify against the same row variables,
// only the instance prefixes ("A1.", "A2.") and fresh range counters
// differ. Canon alpha-renames a formula into a canonical namespace so
// such structurally identical queries share one cache entry, and keeps
// the renaming so a cached model can be translated back into any
// candidate's original variables.
//
// Two further equivalences widen the cache:
//
//   - And/Or are commutative, and mirror-symmetric deadlock cycles (the
//     same pairing with the two transaction roles swapped) emit the same
//     conjuncts in a different order. Canon normalizes connective
//     operand order — first by each operand's role-independent local
//     shape, then by its globally renamed form, iterated to a fixpoint.
//
//   - Satisfiability is invariant under injective remapping of the Int
//     and String constants a formula only ever compares for equality:
//     equality constraints distinguish values by identity alone, and
//     both domains are unbounded. Canon partitions the formula's
//     variables and array roots into components — two share a component
//     when some atom mentions both — and taints every component touched
//     by an order comparison, by arithmetic, or by the dense Real sort,
//     where concrete magnitudes carry meaning. Constant occurrences in
//     atoms of untainted components are folded into the canonical
//     namespace, so candidates differing only in concrete row keys
//     share one entry even when an unrelated part of the formula does
//     arithmetic. Occurrences of the same constant value in different
//     components are independent (no atom relates them), so each
//     component gets its own constant map; within a component the
//     remapping is injective, which preserves the equality pattern the
//     component's atoms observe. The maps are kept so a cached model's
//     values can be mapped back through the inverses (with values
//     outside a component's map sent to fresh values that collide with
//     no original constant of any abstracted component).
//
//   - Tainted components still admit a weaker normalization: v ↦ v+δ is
//     an automorphism of the integers under order, equality, and
//     constant offsets, so when every comparison in a component has the
//     shape (var ± consts | const) OP (var ± consts | const) — one
//     positively-occurring variable or a lone constant per side, no
//     multiplication, negation, or variable differences — shifting
//     every directly-compared constant by a fixed δ preserves
//     satisfiability. Canon shifts each such component so its smallest
//     directly-compared constant becomes zero, merging candidates whose
//     row keys differ by a uniform offset (the common case: the same
//     statement pair hitting different concrete rows under range
//     locks). The δ per component is kept so a cached model's values
//     can be shifted back.
//
// Every step is a pure function of the expression, so Canon is
// deterministic and equivalent inputs converge to one key.

import (
	"math/big"
	"sort"
	"strconv"
)

// CanonResult is the outcome of Canon.
type CanonResult struct {
	// Expr is the canonicalized copy of the input: every variable and
	// array root renamed to "c<N>:<sort>" in first-occurrence order of a
	// left-to-right depth-first traversal, And/Or operands sorted, and
	// constant occurrences in untainted components replaced by canonical
	// ones. Expr is equivalent to the input up to those transformations:
	// alpha-renaming, commutative reordering, and per-component injective
	// constant remapping.
	Expr Expr
	// Rename maps each original variable name and array root ID to its
	// canonical name. The mapping is a bijection on the names occurring
	// in the input, so it can be inverted to translate a model found for
	// Expr back into the input's namespace.
	Rename map[string]string

	// abs maps each canonical variable/array name whose component was
	// abstracted to its component tag; ints and strs hold the
	// per-component original→canonical constant maps under those tags.
	// Canonical constants are globally unique across components, so the
	// per-tag inverses are well-defined. shifted maps each canonical
	// name in a shift-normalized (tainted but offset-invariant)
	// component to that component's δ. Only TranslateModel consumes
	// these.
	abs     map[string]string
	ints    map[string]map[int64]int64
	strs    map[string]map[string]string
	shifted map[string]int64
}

// Key returns Expr's string form, the identity the memo table's second
// level keys on. Equivalent inputs produce equal keys; inputs differing in
// structure or in any corresponding sort produce distinct keys (canonical
// names carry their sorts). It is rendered on demand — once per shape.
func (c CanonResult) Key() string { return c.Expr.String() }

// Invert returns the canonical-to-original name mapping.
func (c CanonResult) Invert() map[string]string {
	inv := make(map[string]string, len(c.Rename))
	for orig, canon := range c.Rename {
		inv[canon] = orig
	}
	return inv
}

// localKeyer canonicalizes operands in isolation, one after another: the
// component analysis and the assignment of each are built in one set of
// maps, cleared in between, because pass 1 keys every operand at every
// nesting level and none of those assignments is kept.
type localKeyer struct {
	comp components
	m    canonMaps
}

func newLocalKeyer() *localKeyer {
	k := &localKeyer{comp: components{parent: map[string]string{}, info: map[string]compInfo{}}}
	k.m = canonMaps{vars: map[string]string{}, abs: map[string]string{}, shifted: map[string]int64{}, comp: &k.comp}
	return k
}

// key canonicalizes x in isolation (including its own component analysis)
// and returns its string form. The key is invariant under any renaming of
// an enclosing formula.
func (k *localKeyer) key(x Expr) string {
	clear(k.comp.parent)
	clear(k.comp.info)
	walkAtoms(x, &k.comp)
	m := &k.m
	clear(m.vars)
	clear(m.abs)
	clear(m.shifted)
	clear(m.ints)
	clear(m.strs)
	m.nextInt, m.nextStr = 0, 0
	canonAssign(x, m)
	return m.render(x)
}

// render returns m.apply(x, "", 0).String() without building the tree.
func (m *canonMaps) render(x Expr) string {
	w := writer{buf: m.buf[:0], m: m}
	w.expr(x, "", 0)
	m.buf = w.buf
	return string(w.buf)
}

// Canon canonicalizes e as described in the package comment above.
func Canon(e Expr) CanonResult {
	// Pass 1: order And/Or operands by their local shape — each operand
	// canonicalized in isolation. The local key is invariant under any
	// renaming of the whole formula, so two equivalent inputs sort their
	// operands identically even though their global first-occurrence
	// numberings disagree.
	e = acSort(e, newLocalKeyer().key)

	// The component partition is a function of the formula's atoms, so it
	// is unaffected by the operand reordering below — compute it once.
	comp := analyzeComponents(e)

	// Pass 2..n: refine ties with the global numbering. Operands that
	// are locally equivalent (e.g. the same path condition instantiated
	// by each of the two transaction roles) get distinct keys once the
	// whole-formula assignment is applied, and that assignment is
	// equivariant under renamings of the input, so equivalent inputs
	// refine identically. Sort and renumber until a fixpoint (or a small
	// cap — Canon stays a pure function either way). m is always the
	// assignment of the current e.
	m := newCanonMaps(e, comp)
	for i := 0; i < 4; i++ {
		sorted := acSort(e, m.render)
		if sorted == e {
			break
		}
		e = sorted
		m = newCanonMaps(e, comp)
	}
	return CanonResult{Expr: m.apply(e, "", 0), Rename: m.vars,
		abs: m.abs, ints: m.ints, strs: m.strs, shifted: m.shifted}
}

// ---------------------------------------------------------------------------
// Symbol components

// compInfo aggregates what a component's atoms observe about its values.
type compInfo struct {
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

func (i *compInfo) merge(o *compInfo) {
	i.tainted = i.tainted || o.tainted
	i.noShift = i.noShift || o.noShift
	if o.hasAbs && (!i.hasAbs || o.minAbs < i.minAbs) {
		i.minAbs = o.minAbs
		i.hasAbs = true
	}
}

// components is a union-find over variable and array-root symbols. Two
// symbols share a component when some atom mentions both.
type components struct {
	parent map[string]string
	info   map[string]compInfo // keyed by root; absent means no observations
}

func (c *components) find(x string) string {
	p, ok := c.parent[x]
	if !ok {
		c.parent[x] = x
	}
	if !ok || p == x {
		return x
	}
	r := c.find(p)
	if r != p {
		c.parent[x] = r
	}
	return r
}

func (c *components) union(a, b string) {
	ra, rb := c.find(a), c.find(b)
	if ra == rb {
		return
	}
	c.parent[ra] = rb
	if ia, ok := c.info[ra]; ok {
		delete(c.info, ra)
		ib := c.info[rb] // the zero compInfo is merge's identity
		ib.merge(&ia)
		c.info[rb] = ib
	}
}

// link merges all syms into one component and folds the atom's
// observations into it.
func (c *components) link(syms []string, facts compInfo) {
	if len(syms) == 0 {
		return
	}
	for _, s := range syms[1:] {
		c.union(syms[0], s)
	}
	root := c.find(syms[0])
	i := c.info[root]
	i.merge(&facts)
	c.info[root] = i
}

func (c *components) tainted(root string) bool { return c.info[root].tainted }

// delta returns the shift for a tainted but offset-invariant component.
func (c *components) delta(root string) (int64, bool) {
	i := c.info[root]
	if !i.tainted || i.noShift || !i.hasAbs || i.minAbs == 0 {
		return 0, false
	}
	return i.minAbs, true
}

// analyzeComponents partitions e's variables by walking its atoms.
func analyzeComponents(e Expr) *components {
	c := &components{parent: map[string]string{}, info: map[string]compInfo{}}
	walkAtoms(e, c)
	return c
}

func walkAtoms(e Expr, c *components) {
	switch t := e.(type) {
	case BoolConst, Var:
		// A Boolean atom relates no Int/String variables.
	case *NAry:
		for _, x := range t.Xs {
			walkAtoms(x, c)
		}
	case Not:
		walkAtoms(t.X, c)
	case *Cmp:
		if t.L.Sort() == SortBool {
			// (Dis)equality over formulas observes truth values only;
			// each side's own atoms constrain their own components.
			walkAtoms(t.L, c)
			walkAtoms(t.R, c)
			return
		}
		syms, bad := termSyms(t.L, nil)
		syms, bad2 := termSyms(t.R, syms)
		facts := compInfo{tainted: bad || bad2 || (t.Op != EQ && t.Op != NE)}
		sideFacts(t.L, &facts)
		sideFacts(t.R, &facts)
		c.link(syms, facts)
	case *Select:
		syms := []string{t.Arr.ID}
		bad := t.Arr.KeySort == SortReal
		// Real-keyed arrays also block the shift: their model entry keys
		// are stored in string form that shiftKeyString cannot move.
		facts := compInfo{noShift: bad}
		for cur := t.Arr; cur != nil; cur = cur.Parent {
			if cur.StoreKey != nil {
				var b bool
				syms, b = termSyms(cur.StoreKey, syms)
				bad = bad || b
				sideFacts(cur.StoreKey, &facts)
			}
		}
		syms, b := termSyms(t.Key, syms)
		sideFacts(t.Key, &facts)
		facts.tainted = facts.tainted || bad || b
		c.link(syms, facts)
	default:
		panic("smt: walkAtoms of unknown node")
	}
}

// sideFacts folds one comparison side (or array key) into the atom's
// facts: a lone Int constant is directly compared (and so shiftable by
// δ); a single positively-occurring variable plus constant offsets is
// offset-invariant; anything else rules the component out of shifting.
func sideFacts(e Expr, f *compInfo) {
	if c, ok := e.(IntConst); ok {
		if !f.hasAbs || c.V < f.minAbs {
			f.minAbs = c.V
		}
		f.hasAbs = true
		return
	}
	if nv, ok := sideShape(e); !ok || nv > 1 {
		f.noShift = true
	}
}

// sideShape reports the number of variable occurrences in a term and
// whether every variable occurs with coefficient +1 (only Add, and Sub
// with a constant subtrahend). Such terms change by exactly δ under the
// shift v ↦ v+δ (or stay fixed when variable-free as a lone constant —
// handled by the caller). Real variables qualify: v ↦ v+δ with integral
// δ is an automorphism of the reals under order, equality, and constant
// offsets just as of the integers. Real *constants* do not — a
// fractional value cannot be folded into the integral δ.
func sideShape(e Expr) (nvars int, ok bool) {
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
			ln, lok := sideShape(t.L)
			rn, rok := sideShape(t.R)
			return ln + rn, lok && rok && ln+rn == 1
		case OpSub:
			ln, lok := sideShape(t.L)
			rn, rok := sideShape(t.R)
			return ln + rn, lok && rok && ln == 1 && rn == 0
		default: // Mul, Neg: not offset-invariant
			return 0, false
		}
	default:
		return 0, false
	}
}

// termSyms appends the variable symbols occurring in the Int/String/Real
// term e to syms and reports whether the term forces its component
// concrete (arithmetic or Real sort). Constants contribute no symbol:
// occurrences of the same value in different atoms are related only
// through the atoms' variables.
func termSyms(e Expr, syms []string) ([]string, bool) {
	switch t := e.(type) {
	case IntConst, StrConst:
		return syms, false
	case RealConst:
		return syms, true
	case Var:
		return append(syms, t.Name), t.S == SortReal
	case *Arith:
		syms, _ = termSyms(t.L, syms)
		if t.R != nil {
			syms, _ = termSyms(t.R, syms)
		}
		return syms, true
	default:
		panic("smt: termSyms of unknown node")
	}
}

// ---------------------------------------------------------------------------
// Canonical assignment

// canonMaps accumulates the canonical assignment for one expression:
// variable/array names always, constants per component in the atoms of
// untainted components.
type canonMaps struct {
	vars    map[string]string
	abs     map[string]string          // canonical name -> component tag
	ints    map[string]map[int64]int64 // tag -> original -> canonical
	strs    map[string]map[string]string
	shifted map[string]int64 // canonical name -> component δ
	nextInt int64
	nextStr int
	comp    *components
	buf     []byte // render's scratch
}

// newCanonMaps returns e's canonical assignment under the partition comp.
func newCanonMaps(e Expr, comp *components) *canonMaps {
	m := &canonMaps{vars: map[string]string{}, abs: map[string]string{},
		shifted: map[string]int64{}, comp: comp}
	canonAssign(e, m)
	return m
}

// atomCtx returns what governs an atom's constants, looked up through the
// component of the atom's first variable: tag names the component's
// constant map when it is untainted; otherwise d is the δ to subtract
// from the atom's directly-compared constants when the component is
// shift-normalized. ("", 0) keeps the constants concrete — no variable,
// or a tainted component that does not shift.
func (m *canonMaps) atomCtx(atom Expr) (tag string, d int64) {
	sym, ok := firstVarSym(atom)
	if !ok {
		return "", 0
	}
	root := m.comp.find(sym)
	if !m.comp.tainted(root) {
		return root, 0
	}
	d, _ = m.comp.delta(root)
	return "", d
}

func firstVarSym(e Expr) (string, bool) {
	switch t := e.(type) {
	case Var:
		return t.Name, true
	case *Cmp:
		if s, ok := firstVarSym(t.L); ok {
			return s, true
		}
		return firstVarSym(t.R)
	case *Arith:
		if s, ok := firstVarSym(t.L); ok || t.R == nil {
			return s, ok
		}
		return firstVarSym(t.R)
	case *Select:
		return t.Arr.ID, true
	default:
		return "", false
	}
}

// canonAssign walks the formula depth-first, left to right, assigning
// canonical names (and, in untainted components, canonical constants) on
// first occurrence. The walk mirrors apply's node coverage.
func canonAssign(e Expr, m *canonMaps) {
	switch t := e.(type) {
	case BoolConst:
	case Var:
		// A Boolean variable used directly as an atom.
		m.assignVar(t.Name, t.S)
	case *NAry:
		for _, x := range t.Xs {
			canonAssign(x, m)
		}
	case Not:
		canonAssign(t.X, m)
	case *Cmp:
		if t.L.Sort() == SortBool {
			canonAssign(t.L, m)
			canonAssign(t.R, m)
			return
		}
		tag, _ := m.atomCtx(t)
		m.assignTerm(t.L, tag)
		m.assignTerm(t.R, tag)
	case *Select:
		tag, _ := m.atomCtx(t)
		m.assignVar(t.Arr.ID, t.Arr.KeySort)
		// Store keys newest-version-first, matching Array.String().
		for cur := t.Arr; cur != nil; cur = cur.Parent {
			if cur.StoreKey != nil {
				m.assignTerm(cur.StoreKey, tag)
			}
		}
		m.assignTerm(t.Key, tag)
	default:
		panic("smt: Canon of unknown node")
	}
}

// assignTerm assigns the variables and (under a non-empty tag) the
// constants of one atom's term side.
func (m *canonMaps) assignTerm(e Expr, tag string) {
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
func (m *canonMaps) assignVar(name string, s Sort) {
	if _, ok := m.vars[name]; ok {
		return
	}
	// Embedding the index first keeps names short; the sort suffix makes
	// sort mismatches visible in the key.
	canon := "c" + strconv.Itoa(len(m.vars)) + ":" + s.String()
	m.vars[name] = canon
	if root := m.comp.find(name); !m.comp.tainted(root) {
		m.abs[canon] = root
	} else if d, ok := m.comp.delta(root); ok {
		m.shifted[canon] = d
	}
}

// apply rewrites e per the assignment in one copy: abstracted constant
// occurrences replaced, directly-compared constants of shift-normalized
// components moved, then variables and array roots renamed. Unassigned
// names and constants pass through unchanged. tag and d are the enclosing
// atom's atomCtx; like the writer — which renders this very tree without
// building it — d moves only an IntConst that is itself an atom side:
// every other side shape sideFacts allows (a variable plus constant
// offsets) tracks its variable, whose model value moves instead, so the
// relative constants inside Arith stay concrete.
func (m *canonMaps) apply(e Expr, tag string, d int64) Expr {
	switch t := e.(type) {
	case BoolConst, RealConst:
		return e
	case IntConst:
		if c, ok := m.ints[tag][t.V]; ok {
			return IntConst{V: c}
		}
		return IntConst{V: t.V - d}
	case StrConst:
		if c, ok := m.strs[tag][t.S]; ok {
			return StrConst{S: c}
		}
		return e
	case Var:
		return Var{Name: m.name(t.Name), S: t.S}
	case *Arith:
		var r Expr
		if t.R != nil {
			r = m.apply(t.R, tag, 0)
		}
		return &Arith{Op: t.Op, L: m.apply(t.L, tag, 0), R: r, S: t.S}
	case *Cmp:
		if t.L.Sort() != SortBool {
			tag, d = m.atomCtx(t)
		}
		return &Cmp{Op: t.Op, L: m.apply(t.L, tag, d), R: m.apply(t.R, tag, d)}
	case *NAry:
		xs := make([]Expr, len(t.Xs))
		for i, x := range t.Xs {
			xs[i] = m.apply(x, tag, 0)
		}
		return &NAry{Conj: t.Conj, Xs: xs}
	case Not:
		return Not{X: m.apply(t.X, tag, 0)}
	case *Select:
		tag, d = m.atomCtx(t)
		return &Select{Arr: m.applyArray(t.Arr, tag, d), Key: m.apply(t.Key, tag, d)}
	default:
		panic("smt: Canon of unknown node")
	}
}

func (m *canonMaps) applyArray(a *Array, tag string, d int64) *Array {
	r := &Array{ID: m.name(a.ID), KeySort: a.KeySort, Version: a.Version, StoreVal: a.StoreVal}
	if a.Parent != nil {
		r.Parent = m.applyArray(a.Parent, tag, d)
		r.StoreKey = m.apply(a.StoreKey, tag, d)
	}
	return r
}

// name returns n's canonical name (n itself when unassigned).
func (m *canonMaps) name(n string) string {
	if c, ok := m.vars[n]; ok {
		return c
	}
	return n
}

// acSort rebuilds e with every And/Or operand list stably sorted by key.
// It returns e itself (interface-equal) when nothing moved, which the
// fixpoint loop in Canon relies on.
func acSort(e Expr, key func(Expr) string) Expr {
	switch t := e.(type) {
	case *NAry:
		xs := make([]Expr, len(t.Xs))
		changed := false
		for i, x := range t.Xs {
			xs[i] = acSort(x, key)
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
		if x := acSort(t.X, key); x != t.X {
			return Not{X: x}
		}
		return t
	case *Cmp:
		// Booleans admit =/!= over connectives, so recurse; term-level
		// nodes (Arith, Select keys) cannot contain And/Or.
		l, r := acSort(t.L, key), acSort(t.R, key)
		if l != t.L || r != t.R {
			return &Cmp{Op: t.Op, L: l, R: r}
		}
		return t
	default:
		return e
	}
}

// ---------------------------------------------------------------------------
// Model translation

// TranslateModel maps a model for c.Expr back into the namespace of the
// expression Canon was called on: variable and array names go through
// the inverse renaming, and values of variables in abstracted
// components go through their component's inverse constant map. Model
// values outside the component's map are sent to fresh values that
// collide with no original constant of any abstracted component and
// with no other translated value, preserving the model's equality
// pattern, which is all an abstracted component can observe. Values of
// variables in tainted components pass through unchanged — their
// constants were never remapped. The result satisfies the original
// expression whenever m satisfies c.Expr.
func TranslateModel(m *Model, c CanonResult) *Model {
	if m == nil {
		return nil
	}
	nameInv := c.Invert()
	back := func(n string) string {
		if o, ok := nameInv[n]; ok {
			return o
		}
		return n
	}

	// Per-component inverse constant maps plus deterministic fresh-value
	// allocators (shared across components: a globally injective value
	// translation is in particular injective within each component). All
	// iteration below is in sorted order so the translation is a pure
	// function of (m, c) regardless of map layout.
	intInv := make(map[string]map[int64]int64, len(c.ints))
	var nextInt int64 = 1
	for tag, mm := range c.ints {
		inv := make(map[int64]int64, len(mm))
		for orig, canon := range mm {
			inv[canon] = orig
			if orig >= nextInt {
				nextInt = orig + 1
			}
		}
		intInv[tag] = inv
	}
	strInv := make(map[string]map[string]string, len(c.strs))
	origStrs := map[string]bool{}
	for tag, mm := range c.strs {
		inv := make(map[string]string, len(mm))
		for orig, canon := range mm {
			inv[canon] = orig
			origStrs[orig] = true
		}
		strInv[tag] = inv
	}
	freshInts := map[int64]int64{}
	freshStrs := map[string]string{}
	nFreshStr := 0
	transVal := func(tag string, v Value) Value {
		switch v.S {
		case SortInt:
			if o, ok := intInv[tag][v.I]; ok {
				return IntValue(o)
			}
			if f, ok := freshInts[v.I]; ok {
				return IntValue(f)
			}
			freshInts[v.I] = nextInt
			nextInt++
			return IntValue(freshInts[v.I])
		case SortString:
			if o, ok := strInv[tag][v.Str]; ok {
				return StrValue(o)
			}
			if f, ok := freshStrs[v.Str]; ok {
				return StrValue(f)
			}
			for {
				cand := "v" + strconv.Itoa(nFreshStr)
				nFreshStr++
				if !origStrs[cand] {
					freshStrs[v.Str] = cand
					break
				}
			}
			return StrValue(freshStrs[v.Str])
		default:
			return v
		}
	}

	out := NewModel()
	for _, n := range sortedKeys(m.Vars) {
		v := m.Vars[n]
		if tag, ok := c.abs[n]; ok {
			v = transVal(tag, v)
		} else if d, ok := c.shifted[n]; ok {
			switch v.S {
			case SortInt:
				v = IntValue(v.I + d)
			case SortReal:
				if v.R != nil {
					v = RealValue(new(big.Rat).Add(v.R, new(big.Rat).SetInt64(d)))
				}
			}
		}
		out.Vars[back(n)] = v
	}
	for _, id := range sortedKeys(m.Arrays) {
		ent := m.Arrays[id]
		tag, abstracted := c.abs[id]
		d, shifted := c.shifted[id]
		cp := make(map[string]bool, len(ent))
		for _, k := range sortedKeys(ent) {
			ck := k
			if abstracted {
				ck = transValueString(k, tag, transVal)
			} else if shifted {
				ck = shiftKeyString(k, d)
			}
			cp[ck] = ent[k]
		}
		out.Arrays[back(id)] = cp
	}
	return out
}

// shiftKeyString shifts an Int array-entry key (stored in decimal string
// form) back by a component's δ; non-Int keys pass through unchanged.
func shiftKeyString(k string, d int64) string {
	if n, err := strconv.ParseInt(k, 10, 64); err == nil {
		return IntValue(n + d).String()
	}
	return k
}

// transValueString translates an array-entry key, which Model stores as
// the string form of the key value: quoted for strings, decimal for
// ints. Unparseable keys (never produced for abstracted components) pass
// through unchanged.
func transValueString(k, tag string, transVal func(string, Value) Value) string {
	if len(k) > 0 && k[0] == '"' {
		if s, err := strconv.Unquote(k); err == nil {
			return transVal(tag, StrValue(s)).String()
		}
		return k
	}
	if n, err := strconv.ParseInt(k, 10, 64); err == nil {
		return transVal(tag, IntValue(n)).String()
	}
	return k
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
