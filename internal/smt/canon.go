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
//
// The passes run on a compiled form: one pre-order walk flattens the
// formula into a node slice whose variables and array roots are the
// Shape's symbol indices, so the union-find, the assignment and the
// constant maps are slices indexed by symbol, reset by bumping an epoch,
// and a sort key is bytes appended to one reused buffer. What an atom
// observes (sideFacts) and its first symbol do not depend on operand
// order, so compile computes them once.

import (
	"bytes"
	"math/big"
	"slices"
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
	// constant remapping. Shape.Rebase leaves it nil — ShapeCanon.Expr
	// builds it for whoever has to solve it.
	Expr Expr
	// Rename maps each original variable name and array root ID to its
	// canonical name. The mapping is a bijection on the names occurring
	// in the input, so it can be inverted to translate a model found for
	// Expr back into the input's namespace.
	Rename map[string]string

	key string

	// abs maps each canonical variable/array name whose component was
	// abstracted to its component tag; ints and strs hold the
	// per-component original→canonical constant maps under those tags.
	// Canonical constants are globally unique across components, so the
	// per-tag inverses are well-defined. shifted maps each canonical
	// name in a shift-normalized (tainted but offset-invariant)
	// component to that component's δ. vars lists the canonical
	// formula's variables (not its array roots), so that a model which
	// omits some of them can still be translated whole. Only
	// TranslateModel consumes these.
	abs     map[string]string
	ints    map[string]map[int64]int64
	strs    map[string]map[string]string
	shifted map[string]int64
	vars    []Var
}

// Key returns Expr's string form, the identity the memo table's second
// level keys on. Equivalent inputs produce equal keys; inputs differing in
// structure or in any corresponding sort produce distinct keys (canonical
// names carry their sorts).
func (c CanonResult) Key() string { return c.key }

// Invert returns the canonical-to-original name mapping.
func (c CanonResult) Invert() map[string]string {
	inv := make(map[string]string, len(c.Rename))
	for orig, canon := range c.Rename {
		inv[canon] = orig
	}
	return inv
}

// Canon canonicalizes e as described in the package comment above.
func Canon(e Expr) CanonResult {
	var sh Shape
	sh.Reset(e)
	c := sh.Canon()
	r := sh.Rebase(c)
	r.Expr = c.Expr()
	return r
}

// ShapeCanon is the canonicalization of a formula shape — everything Canon
// computes that does not depend on what the symbols are called, so every
// formula of the shape shares it. It is immutable.
type ShapeCanon struct {
	res   CanonResult // the key and the translation maps; Expr and Rename unset
	names []string    // canonical name of the shape's i-th symbol
	// The compiled formula with its operand lists in final order and its
	// constants already canonical: what Expr builds from.
	nodes  []cnode
	kids   []int32
	consts []Expr
}

// Key is the canonical formula's string form (CanonResult.Key).
func (c *ShapeCanon) Key() string { return c.res.key }

// Rebase returns what Canon returns for the formula s was taken from,
// short of Expr: c with the formula's own names composed in.
func (s *Shape) Rebase(c *ShapeCanon) CanonResult {
	r := c.res
	r.Rename = make(map[string]string, len(s.names))
	for i, n := range s.names {
		r.Rename[n] = c.names[i]
	}
	return r
}

// ---------------------------------------------------------------------------
// Compiled form

const (
	kBool    uint8 = iota // op: the value
	kInt                  // v; op 1: the constant is itself an atom side, so a shift moves it
	kReal                 // consts[v]
	kStr                  // consts[v]; op 1 (in a ShapeCanon only): the canonical "k<v>"
	kVar                  // sym, sort
	kArith                // op, sort; operands follow
	kCmp                  // an atom — op; sym: its first symbol or -1; v: index into facts
	kBoolCmp              // (dis)equality of formulas — op
	kNAry                 // op 1: and; v operands listed at kids[aux:]
	kNot
	kSelect // an atom — sym, v as kCmp; a kRoot, the kStores oldest first, then the key at node aux
	kRoot   // array root — sym, sort (of its keys), v: version
	kStore  // one array version — op: the stored value, v: version; its key follows
)

// cnode is one node of the flattened formula. Nodes are in pre-order and
// a node's subtree is the span up to end, so a node's children are i+1,
// nodes[i+1].end, … — except And/Or operands, which sorting permutes and
// which are therefore listed in kids. It holds no pointer — String and
// Real constants sit in a side table — so the collector never scans nodes.
type cnode struct {
	kind, op uint8
	sort     Sort
	end      int32
	sym      int32
	aux      int32
	v        int64
}

// symState is a symbol's slot in the union-find and in the assignment;
// each half is valid only under the matching epoch.
type symState struct {
	parent  int32
	ufEpoch uint32
	info    compInfo // of the component, when the symbol is its root

	canon    int32 // N of "c<N>:<sort>"
	sort     Sort  // at first occurrence
	root     bool  // an array root, not a variable
	asgEpoch uint32
}

// canonizer is Canon's scratch, kept in the Shape so that a pooled Shape
// canonicalizes without allocating anything but its result.
type canonizer struct {
	nodes  []cnode
	kids   []int32
	consts []Expr     // the String and Real constants
	facts  []compInfo // what each atom observes
	idx    map[string]int

	syms     []symState
	ufEpoch  uint32
	asgEpoch uint32
	assigned int32
	// The assignment's constant maps: entry k of ints maps orig to k+1
	// within component comp, entry k of strs to "k<k>". A formula has a
	// handful of constants, so lookup is a scan.
	ints []intEntry
	strs []strEntry

	buf []byte    // the sort keys of one operand list, or the final key
	ops []operand // that list's operands and where their keys are
}

type intEntry struct {
	comp int32
	orig int64
}

type strEntry struct {
	comp int32
	orig string
}

// operand is an And/Or operand and its sort key, buf[lo:hi].
type operand struct {
	node, lo, hi int32
}

// Canon canonicalizes the formula s was last Reset to.
func (s *Shape) Canon() *ShapeCanon {
	c := &s.cz
	c.nodes, c.kids, c.consts, c.facts, c.idx = c.nodes[:0], c.kids[:0], c.consts[:0], c.facts[:0], s.idx
	c.syms = c.syms[:0]
	for range s.names {
		c.syms = append(c.syms, symState{})
	}
	c.ufEpoch, c.asgEpoch = 0, 0
	c.formula(s.e)

	// Pass 1: order And/Or operands by their local shape — each operand
	// canonicalized in isolation. The local key is invariant under any
	// renaming of the whole formula, so two equivalent inputs sort their
	// operands identically even though their global first-occurrence
	// numberings disagree.
	c.sortOperands(0, true)

	// The component partition is a function of the formula's atoms, so it
	// is unaffected by the operand reordering below — compute it once.
	c.analyze(0)

	// Pass 2..n: refine ties with the global numbering. Operands that
	// are locally equivalent (e.g. the same path condition instantiated
	// by each of the two transaction roles) get distinct keys once the
	// whole-formula assignment is applied, and that assignment is
	// equivariant under renamings of the input, so equivalent inputs
	// refine identically. Sort and renumber until a fixpoint (or a small
	// cap — Canon stays a pure function either way). The assignment is
	// always that of the current order.
	c.assign(0)
	for i := 0; i < 4 && c.sortOperands(0, false); i++ {
		c.assign(0)
	}
	return c.result()
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// formula compiles a Boolean-level node.
func (c *canonizer) formula(e Expr) {
	i := len(c.nodes)
	switch t := e.(type) {
	case BoolConst:
		c.nodes = append(c.nodes, cnode{kind: kBool, op: b2u(t.B)})
	case Var:
		// A Boolean variable used directly as an atom relates no symbols.
		c.nodes = append(c.nodes, cnode{kind: kVar, sort: t.S, sym: int32(c.idx[t.Name])})
	case *NAry:
		c.nodes = append(c.nodes, cnode{kind: kNAry, op: b2u(t.Conj), v: int64(len(t.Xs)), aux: int32(len(c.kids))})
		for range t.Xs {
			c.kids = append(c.kids, 0)
		}
		for j, x := range t.Xs {
			c.kids[int(c.nodes[i].aux)+j] = int32(len(c.nodes))
			c.formula(x)
		}
	case Not:
		c.nodes = append(c.nodes, cnode{kind: kNot})
		c.formula(t.X)
	case *Cmp:
		if t.L.Sort() == SortBool {
			// (Dis)equality over formulas observes truth values only;
			// each side's own atoms constrain their own components.
			c.nodes = append(c.nodes, cnode{kind: kBoolCmp, op: uint8(t.Op)})
			c.formula(t.L)
			c.formula(t.R)
			break
		}
		c.nodes = append(c.nodes, cnode{kind: kCmp, op: uint8(t.Op)})
		f := compInfo{tainted: t.Op != EQ && t.Op != NE}
		c.side(t.L, &f)
		c.side(t.R, &f)
		c.atom(i, f)
	case *Select:
		c.nodes = append(c.nodes, cnode{kind: kSelect})
		// Real-keyed arrays also block the shift: their model entry keys
		// are stored in string form that shiftKeyString cannot move.
		real := t.Arr.KeySort == SortReal
		f := compInfo{tainted: real, noShift: real}
		c.array(t.Arr, &f)
		c.nodes[i].aux = int32(len(c.nodes))
		c.side(t.Key, &f)
		c.atom(i, f)
	default:
		panic("smt: Canon of unknown node")
	}
	c.nodes[i].end = int32(len(c.nodes))
}

// atom completes the atom at node i, whose operands are compiled: f is
// what it observes and its first symbol stands for its component.
func (c *canonizer) atom(i int, f compInfo) {
	n := &c.nodes[i]
	n.sym, n.v = -1, int64(len(c.facts))
	c.facts = append(c.facts, f)
	for _, m := range c.nodes[i+1:] {
		if m.kind == kVar || m.kind == kRoot {
			n.sym = m.sym
			break
		}
	}
}

func (c *canonizer) array(a *Array, f *compInfo) {
	i := len(c.nodes)
	if a.Parent == nil {
		c.nodes = append(c.nodes, cnode{kind: kRoot, sort: a.KeySort, sym: int32(c.idx[a.ID]), v: int64(a.Version)})
	} else {
		c.array(a.Parent, f)
		i = len(c.nodes)
		c.nodes = append(c.nodes, cnode{kind: kStore, op: b2u(a.StoreVal), v: int64(a.Version)})
		c.side(a.StoreKey, f)
	}
	c.nodes[i].end = int32(len(c.nodes))
}

// side compiles one comparison side (or array key) and folds it into the
// atom's facts: a lone Int constant is directly compared (and so
// shiftable by δ); a single positively-occurring variable plus constant
// offsets is offset-invariant; anything else rules the component out of
// shifting.
func (c *canonizer) side(e Expr, f *compInfo) {
	if k, ok := e.(IntConst); ok {
		c.nodes = append(c.nodes, cnode{kind: kInt, op: 1, v: k.V, end: int32(len(c.nodes) + 1)})
		if !f.hasAbs || k.V < f.minAbs {
			f.minAbs = k.V
		}
		f.hasAbs = true
		return
	}
	if nv, ok := c.term(e, f); !ok || nv > 1 {
		f.noShift = true
	}
}

// term compiles an Int/String/Real term, taints the atom when the term
// forces its component concrete (arithmetic or Real sort), and reports
// the number of variable occurrences and whether every variable occurs
// with coefficient +1 (only Add, and Sub with a constant subtrahend).
// Such terms change by exactly δ under the shift v ↦ v+δ. Real variables
// qualify: v ↦ v+δ with integral δ is an automorphism of the reals under
// order, equality, and constant offsets just as of the integers. Real
// *constants* do not — a fractional value cannot be folded into the
// integral δ. Constants contribute no symbol: occurrences of the same
// value in different atoms are related only through the atoms' variables.
func (c *canonizer) term(e Expr, f *compInfo) (nvars int, ok bool) {
	i := len(c.nodes)
	switch t := e.(type) {
	case IntConst:
		c.nodes = append(c.nodes, cnode{kind: kInt, v: t.V})
		ok = true
	case StrConst:
		c.nodes = append(c.nodes, cnode{kind: kStr, v: int64(len(c.consts))})
		c.consts = append(c.consts, e)
		ok = true
	case RealConst:
		c.nodes = append(c.nodes, cnode{kind: kReal, v: int64(len(c.consts))})
		c.consts = append(c.consts, e)
		f.tainted = true
	case Var:
		c.nodes = append(c.nodes, cnode{kind: kVar, sort: t.S, sym: int32(c.idx[t.Name])})
		f.tainted = f.tainted || t.S == SortReal
		nvars, ok = 1, true
	case *Arith:
		c.nodes = append(c.nodes, cnode{kind: kArith, op: uint8(t.Op), sort: t.S})
		f.tainted = true
		ln, lok := c.term(t.L, f)
		rn, rok := 0, true
		if t.R != nil {
			rn, rok = c.term(t.R, f)
		}
		switch t.Op { // Mul, Neg: not offset-invariant
		case OpAdd:
			nvars, ok = ln+rn, lok && rok && ln+rn == 1
		case OpSub:
			nvars, ok = ln+rn, lok && rok && ln == 1 && rn == 0
		}
	default:
		panic("smt: Canon of unknown term node")
	}
	c.nodes[i].end = int32(len(c.nodes))
	return nvars, ok
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

// delta returns the shift for a tainted but offset-invariant component,
// 0 when it does not shift.
func (i *compInfo) delta() int64 {
	if !i.tainted || i.noShift || !i.hasAbs {
		return 0
	}
	return i.minAbs
}

// find is a union-find over the symbols: two share a component when some
// atom mentions both. A symbol untouched in this epoch is its own root.
func (c *canonizer) find(x int32) int32 {
	s := &c.syms[x]
	if s.ufEpoch != c.ufEpoch {
		s.ufEpoch, s.parent, s.info = c.ufEpoch, x, compInfo{}
	}
	if s.parent != x {
		s.parent = c.find(s.parent)
	}
	return s.parent
}

// analyze partitions the symbols of node i's subtree by walking its atoms.
func (c *canonizer) analyze(i int32) {
	c.ufEpoch++
	for end := c.nodes[i].end; i < end; i++ {
		n := &c.nodes[i]
		if (n.kind != kCmp && n.kind != kSelect) || n.sym < 0 {
			continue
		}
		root := c.find(n.sym)
		for _, m := range c.nodes[i+1 : n.end] {
			if m.kind != kVar && m.kind != kRoot {
				continue
			}
			if r := c.find(m.sym); r != root {
				c.syms[r].parent = root
				c.syms[root].info.merge(&c.syms[r].info)
			}
		}
		c.syms[root].info.merge(&c.facts[n.v])
		i = n.end - 1
	}
}

// atomCtx returns what governs an atom's constants, looked up through the
// component of the atom's first symbol: tag is the component's root when
// it is untainted and its constants are mapped; otherwise d is the δ to
// subtract from the atom's directly-compared constants when the component
// is shift-normalized. (-1, 0) keeps the constants concrete — no symbol,
// or a tainted component that does not shift.
func (c *canonizer) atomCtx(sym int32) (tag int32, d int64) {
	if sym < 0 {
		return -1, 0
	}
	root := c.find(sym)
	if info := &c.syms[root].info; info.tainted {
		return -1, info.delta()
	}
	return root, 0
}

// ---------------------------------------------------------------------------
// Canonical assignment

// assign walks node i's subtree depth-first in current operand order,
// giving symbols canonical names and, in untainted components, constants
// canonical values on first occurrence. It replaces the previous
// assignment.
func (c *canonizer) assign(i int32) {
	c.asgEpoch++
	c.assigned, c.ints, c.strs = 0, c.ints[:0], c.strs[:0]
	c.assignNode(i, -1)
}

func (c *canonizer) assignNode(i, tag int32) {
	n := &c.nodes[i]
	switch n.kind {
	case kBool, kReal:
	case kInt:
		if tag >= 0 {
			c.intConst(tag, n.v, true)
		}
	case kStr:
		if tag >= 0 {
			c.strConst(tag, c.consts[n.v].(StrConst).S, true)
		}
	case kVar, kRoot:
		if s := &c.syms[n.sym]; s.asgEpoch != c.asgEpoch {
			// The index keeps names short; the sort makes sort mismatches
			// visible in the key.
			s.asgEpoch, s.canon, s.sort, s.root = c.asgEpoch, c.assigned, n.sort, n.kind == kRoot
			c.assigned++
		}
	case kNAry:
		for _, k := range c.kids[n.aux:][:n.v] {
			c.assignNode(k, tag)
		}
	case kSelect:
		tag, _ = c.atomCtx(n.sym)
		c.assignNode(i+1, tag)
		c.assignStores(i+2, n.aux, tag)
		c.assignNode(n.aux, tag)
	default:
		if n.kind == kCmp {
			tag, _ = c.atomCtx(n.sym)
		}
		for k := i + 1; k < n.end; k = c.nodes[k].end {
			c.assignNode(k, tag)
		}
	}
}

// assignStores assigns the store keys in [k, end) newest version first.
func (c *canonizer) assignStores(k, end, tag int32) {
	if k < end {
		c.assignStores(c.nodes[k].end, end, tag)
		c.assignNode(k, tag)
	}
}

// intConst returns the canonical value of v in component comp, giving it
// the next one when add is set and it has none.
func (c *canonizer) intConst(comp int32, v int64, add bool) (int64, bool) {
	for k, e := range c.ints {
		if e.comp == comp && e.orig == v {
			return int64(k + 1), true
		}
	}
	if add {
		c.ints = append(c.ints, intEntry{comp, v})
	}
	return int64(len(c.ints)), add
}

// strConst is intConst for strings: k stands for "k<k>".
func (c *canonizer) strConst(comp int32, s string, add bool) (int, bool) {
	for k, e := range c.strs {
		if e.comp == comp && e.orig == s {
			return k, true
		}
	}
	if add {
		c.strs = append(c.strs, strEntry{comp, s})
	}
	return len(c.strs) - 1, add
}

// intValue is what the assignment makes of the Int constant n under its
// atom's context: mapped in an abstracted component, moved by the shift
// when directly compared, itself otherwise.
func (c *canonizer) intValue(n *cnode, tag int32, d int64) int64 {
	if k, ok := c.intConst(tag, n.v, false); ok {
		return k
	}
	if n.op == 1 {
		return n.v - d
	}
	return n.v
}

// ---------------------------------------------------------------------------
// Keys and operand order

func (c *canonizer) name(sym int32) {
	s := &c.syms[sym]
	b := strconv.AppendInt(append(c.buf, 'c'), int64(s.canon), 10)
	c.buf = append(append(b, ':'), s.sort.String()...)
}

func (c *canonizer) str(s string) { c.buf = append(c.buf, s...) }

// render appends to buf what the canonical form of node i's subtree under
// the current assignment prints as — String() of the tree ShapeCanon.Expr
// would build, without building it. tag and d are the enclosing atom's
// atomCtx.
func (c *canonizer) render(i, tag int32, d int64) {
	n := &c.nodes[i]
	switch n.kind {
	case kBool:
		c.buf = strconv.AppendBool(c.buf, n.op == 1)
	case kInt:
		c.buf = strconv.AppendInt(c.buf, c.intValue(n, tag, d), 10)
	case kReal:
		c.str(c.consts[n.v].String())
	case kStr:
		s := c.consts[n.v].(StrConst).S
		if k, ok := c.strConst(tag, s, false); ok {
			c.buf = append(c.buf, `"k`...)
			c.buf = strconv.AppendInt(c.buf, int64(k), 10)
			c.buf = append(c.buf, '"')
		} else {
			c.buf = strconv.AppendQuote(c.buf, s)
		}
	case kVar, kRoot:
		c.name(n.sym)
	case kNAry:
		if n.op == 1 {
			c.str("(and ")
		} else {
			c.str("(or ")
		}
		for j, k := range c.kids[n.aux:][:n.v] {
			if j > 0 {
				c.buf = append(c.buf, ' ')
			}
			c.render(k, tag, d)
		}
		c.buf = append(c.buf, ')')
	case kNot:
		c.str("(not ")
		c.render(i+1, tag, d)
		c.buf = append(c.buf, ')')
	case kSelect:
		tag, d = c.atomCtx(n.sym)
		c.str("read(")
		for k := i + 2; k < n.aux; k = c.nodes[k].end {
			c.str("write(")
		}
		c.name(c.nodes[i+1].sym)
		for k := i + 2; k < n.aux; k = c.nodes[k].end {
			c.str(", ")
			c.render(k+1, tag, d)
			c.str(", ")
			c.buf = strconv.AppendBool(c.buf, c.nodes[k].op == 1)
			c.buf = append(c.buf, ')')
		}
		c.str(", ")
		c.render(n.aux, tag, d)
		c.buf = append(c.buf, ')')
	default: // kArith, kCmp, kBoolCmp
		op := CmpOp(n.op).String()
		switch n.kind {
		case kCmp:
			tag, d = c.atomCtx(n.sym)
		case kArith:
			op = ArithOp(n.op).String()
		}
		if r := c.nodes[i+1].end; r == n.end { // Neg, the one unary operator
			c.str("(- ")
			c.render(i+1, tag, d)
		} else {
			c.buf = append(c.buf, '(')
			c.render(i+1, tag, d)
			c.buf = append(c.buf, ' ')
			c.str(op)
			c.buf = append(c.buf, ' ')
			c.render(r, tag, d)
		}
		c.buf = append(c.buf, ')')
	}
}

// sortOperands stably sorts every And/Or operand list under node i by key,
// innermost lists first, and reports whether anything moved. With local
// set an operand's key is its own canonical form — component analysis and
// assignment of the operand in isolation, invariant under any renaming of
// an enclosing formula; otherwise it is the operand's form under the
// current (whole-formula) assignment.
func (c *canonizer) sortOperands(i int32, local bool) bool {
	n := &c.nodes[i]
	moved := false
	switch n.kind {
	case kNot, kBoolCmp:
		// Booleans admit =/!= over connectives, so recurse; term-level
		// nodes (Arith, Select keys) cannot contain And/Or.
		for k := i + 1; k < n.end; k = c.nodes[k].end {
			moved = c.sortOperands(k, local) || moved
		}
	case kNAry:
		kids := c.kids[n.aux:][:n.v]
		for _, k := range kids {
			moved = c.sortOperands(k, local) || moved
		}
		c.buf, c.ops = c.buf[:0], c.ops[:0]
		sorted := true
		for j, k := range kids {
			if local {
				c.analyze(k)
				c.assign(k)
			}
			lo := int32(len(c.buf))
			c.render(k, -1, 0)
			c.ops = append(c.ops, operand{k, lo, int32(len(c.buf))})
			sorted = sorted && (j == 0 || c.cmpOps(c.ops[j-1], c.ops[j]) <= 0)
		}
		if !sorted {
			slices.SortStableFunc(c.ops, c.cmpOps)
			for j, o := range c.ops {
				kids[j] = o.node
			}
			moved = true
		}
	}
	return moved
}

func (c *canonizer) cmpOps(a, b operand) int {
	return bytes.Compare(c.buf[a.lo:a.hi], c.buf[b.lo:b.hi])
}

// ---------------------------------------------------------------------------
// Outputs

// result renders the key and materializes, once, what outlives the
// scratch: the canonical names, the maps TranslateModel needs, and a copy
// of the nodes with every constant made canonical for Expr.
func (c *canonizer) result() *ShapeCanon {
	c.buf = c.buf[:0]
	c.render(0, -1, 0)
	out := &ShapeCanon{res: CanonResult{key: string(c.buf)}, names: make([]string, len(c.syms)),
		nodes: slices.Clone(c.nodes), kids: slices.Clone(c.kids), consts: slices.Clone(c.consts)}
	res := &out.res

	c.buf, c.ops = c.buf[:0], c.ops[:0]
	for sym := range c.syms {
		lo := int32(len(c.buf))
		c.name(int32(sym))
		c.ops = append(c.ops, operand{lo: lo, hi: int32(len(c.buf))})
	}
	all := string(c.buf)
	for sym, o := range c.ops {
		out.names[sym] = all[o.lo:o.hi]
	}
	res.vars = make([]Var, 0, len(c.syms))
	for sym, s := range c.syms {
		if !s.root {
			res.vars = append(res.vars, Var{Name: out.names[sym], S: s.sort})
		}
	}

	for sym := range c.syms {
		root := c.find(int32(sym))
		if info := &c.syms[root].info; !info.tainted {
			if res.abs == nil {
				res.abs = make(map[string]string, len(c.syms))
			}
			res.abs[out.names[sym]] = out.names[root]
		} else if d := info.delta(); d != 0 {
			if res.shifted == nil {
				res.shifted = map[string]int64{}
			}
			res.shifted[out.names[sym]] = d
		}
	}
	for k, e := range c.ints {
		if res.ints == nil {
			res.ints = map[string]map[int64]int64{}
		}
		tag := out.names[e.comp]
		if res.ints[tag] == nil {
			res.ints[tag] = map[int64]int64{}
		}
		res.ints[tag][e.orig] = int64(k + 1)
	}
	for k, e := range c.strs {
		if res.strs == nil {
			res.strs = map[string]map[string]string{}
		}
		tag := out.names[e.comp]
		if res.strs[tag] == nil {
			res.strs[tag] = map[string]string{}
		}
		res.strs[tag][e.orig] = "k" + strconv.Itoa(k)
	}

	for i := 0; i < len(out.nodes); i++ {
		n := &out.nodes[i]
		if n.kind != kCmp && n.kind != kSelect {
			continue
		}
		tag, d := c.atomCtx(n.sym)
		for j := i + 1; j < int(n.end); j++ {
			switch m := &out.nodes[j]; m.kind {
			case kInt:
				m.v = c.intValue(m, tag, d)
			case kStr:
				if k, ok := c.strConst(tag, c.consts[m.v].(StrConst).S, false); ok {
					m.op, m.v = 1, int64(k)
				}
			}
		}
		i = int(n.end) - 1
	}
	return out
}

// Expr builds the canonical formula (CanonResult.Expr), anew on each call.
func (c *ShapeCanon) Expr() Expr { return c.build(0) }

func (c *ShapeCanon) build(i int32) Expr {
	n := &c.nodes[i]
	switch n.kind {
	case kBool:
		return BoolConst{B: n.op == 1}
	case kInt:
		return IntConst{V: n.v}
	case kStr:
		if n.op == 1 {
			return StrConst{S: "k" + strconv.Itoa(int(n.v))}
		}
		return c.consts[n.v]
	case kReal:
		return c.consts[n.v]
	case kVar:
		return Var{Name: c.names[n.sym], S: n.sort}
	case kArith:
		a := &Arith{Op: ArithOp(n.op), L: c.build(i + 1), S: n.sort}
		if r := c.nodes[i+1].end; r < n.end {
			a.R = c.build(r)
		}
		return a
	case kCmp, kBoolCmp:
		return &Cmp{Op: CmpOp(n.op), L: c.build(i + 1), R: c.build(c.nodes[i+1].end)}
	case kNAry:
		xs := make([]Expr, n.v)
		for j, k := range c.kids[n.aux:][:n.v] {
			xs[j] = c.build(k)
		}
		return &NAry{Conj: n.op == 1, Xs: xs}
	case kNot:
		return Not{X: c.build(i + 1)}
	default: // kSelect
		root := &c.nodes[i+1]
		arr := &Array{ID: c.names[root.sym], KeySort: root.sort, Version: int(root.v)}
		for k := i + 2; k < n.aux; k = c.nodes[k].end {
			arr = &Array{ID: arr.ID, KeySort: arr.KeySort, Version: int(c.nodes[k].v),
				Parent: arr, StoreKey: c.build(k + 1), StoreVal: c.nodes[k].op == 1}
		}
		return &Select{Arr: arr, Key: c.build(n.aux)}
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
// constants were never remapped. Every variable of c.Expr is translated,
// those m omits at their sort's default (Model.Lookup): in an abstracted or
// shifted component that default stands for a different original value.
// The result satisfies the original expression whenever m satisfies c.Expr.
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

	vals := make(map[string]Value, len(m.Vars)+len(c.vars))
	for n, v := range m.Vars {
		vals[n] = v
	}
	for _, v := range c.vars {
		vals[v.Name] = m.Lookup(v.Name, v.S)
	}
	out := NewModel()
	for _, n := range sortedKeys(vals) {
		v := vals[n]
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
