package staticlint

// The call-graph layer of whole-program vet. Nodes are the function
// declarations of every target package, keyed on their *types.Func
// objects; call sites resolve through go/types (static calls and
// method values), through CHA-style devirtualization for interface
// call sites, and — only where type information is missing — through
// a per-package receiver-name heuristic (heuristicSite). The graph is
// condensed into SCCs (Tarjan) and per-function transitive summaries
// are computed bottom-up to a fixed point, so a handler's event sequence
// includes everything its callees do: across packages, through
// interfaces, and through recursion. Summaries dedupe on the leaf
// (kind, file, line) identity, which makes the fixpoint monotone; the
// splice back into caller facts additionally scopes that dedup per
// call-site context (spliceCtx), so diamond call paths don't
// double-count one acquisition but a callee invoked both before and
// inside a loop still registers its per-element in-loop acquisition.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// sumEvent is one transitively reachable event: kind plus the leaf
// site where it really happens and the callee chain below the caller
// that reaches it.
type sumEvent struct {
	kind   eventKind
	file   string
	line   int
	uncond bool
	entTab string
	col    string
	path   []string
}

// sumTmpl is a transitively reachable statement template.
type sumTmpl struct {
	kind       tmplKind
	file       string
	line       int
	sql        string
	table, col string
	path       []string
}

type funcSum struct {
	events []sumEvent
	tmpls  []sumTmpl
	evKeys map[string]bool
	tmKeys map[string]bool
}

func newFuncSum() *funcSum {
	return &funcSum{evKeys: map[string]bool{}, tmKeys: map[string]bool{}}
}

func eventKey(kind eventKind, file string, line int, entTab, col string) string {
	return fmt.Sprintf("%d|%s|%d|%s|%s", kind, file, line, entTab, col)
}

func tmplKey(kind tmplKind, file string, line int, sql, table, col string) string {
	return fmt.Sprintf("%d|%s|%d|%s|%s|%s", kind, file, line, sql, table, col)
}

func (s *funcSum) addEvent(e sumEvent) bool {
	k := eventKey(e.kind, e.file, e.line, e.entTab, e.col)
	if s.evKeys[k] {
		return false
	}
	s.evKeys[k] = true
	s.events = append(s.events, e)
	return true
}

func (s *funcSum) addTmpl(t sumTmpl) bool {
	k := tmplKey(t.kind, t.file, t.line, t.sql, t.table, t.col)
	if s.tmKeys[k] {
		return false
	}
	s.tmKeys[k] = true
	s.tmpls = append(s.tmpls, t)
	return true
}

// cgNode is one function declaration in the program.
type cgNode struct {
	id      int
	pkg     *progPkg
	name    string
	recv    string // first receiver ident ("" = unnamed or plain func)
	recvTyp string // receiver type name, for display
	isMeth  bool
	facts   *fnFacts
	callees [][]int // per facts.calls index: resolved callee node ids
	sum     *funcSum
}

type callGraph struct {
	prog   *Program
	nodes  []*cgNode
	byFunc map[*types.Func]*cgNode
	byName map[*progPkg]map[string][]*cgNode
	sccs   [][]int // Tarjan pop order: callees' components before callers'
}

// scan resolves the call graph over every target function, computes
// transitive summaries, and splices them back into the per-function
// facts the lint and shape layers consume.
func (p *Program) scan() []*fnFacts {
	g := p.newCallGraph()
	g.resolve()
	g.condense()
	g.summarize()
	g.splice()
	facts := make([]*fnFacts, len(g.nodes))
	for i, n := range g.nodes {
		facts[i] = n.facts
	}
	return facts
}

// newCallGraph interprets every function of every target package into
// one unresolved node each.
func (p *Program) newCallGraph() *callGraph {
	g := &callGraph{
		prog:   p,
		byFunc: map[*types.Func]*cgNode{},
		byName: map[*progPkg]map[string][]*cgNode{},
	}
	for _, tp := range p.targets {
		g.byName[tp] = map[string][]*cgNode{}
		for _, fd := range tp.decls {
			n := &cgNode{
				id:      len(g.nodes),
				pkg:     tp,
				name:    fd.Name.Name,
				recv:    recvIdent(fd),
				recvTyp: recvTypeName(fd),
				isMeth:  fd.Recv != nil,
				facts:   interpret(p.fset, fd),
			}
			// No *types.Func (the declaration did not type-check): the
			// node is reachable through heuristicSite only.
			if fn, ok := p.info.Defs[fd.Name].(*types.Func); ok {
				g.byFunc[fn.Origin()] = n
			}
			g.nodes = append(g.nodes, n)
			g.byName[tp][n.name] = append(g.byName[tp][n.name], n)
		}
	}
	return g
}

// resolve binds every recorded call site to its callee node(s).
func (g *callGraph) resolve() {
	for _, n := range g.nodes {
		n.callees = make([][]int, len(n.facts.calls))
		for i, c := range n.facts.calls {
			n.callees[i] = g.resolveSite(n, c)
		}
	}
}

func (g *callGraph) resolveSite(n *cgNode, c callSite) []int {
	switch fun := c.call.Fun.(type) {
	case *ast.Ident:
		if obj, ok := g.prog.info.Uses[fun]; ok {
			return g.staticTarget(obj)
		}
	case *ast.SelectorExpr:
		if sel, ok := g.prog.info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			fn, _ := sel.Obj().(*types.Func)
			if fn == nil {
				return nil
			}
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				return g.chaCandidates(fn, iface)
			}
			return g.staticTarget(fn)
		}
		// Qualified call (pkg.Func) or method expression: Uses carries
		// the object even without a Selection entry.
		if obj, ok := g.prog.info.Uses[fun.Sel]; ok {
			return g.staticTarget(obj)
		}
	default:
		return nil
	}
	// go/types produced nothing for this site (the package doesn't
	// fully type-check): fall back to the per-package name heuristic.
	return g.heuristicSite(n, c)
}

// staticTarget maps a resolved object to its node; a typed callee that
// lives outside the target tree resolves to nothing (no fallback — the
// types are authoritative).
func (g *callGraph) staticTarget(obj types.Object) []int {
	if fn, ok := obj.(*types.Func); ok {
		if tn, ok := g.byFunc[fn.Origin()]; ok {
			return []int{tn.id}
		}
	}
	return nil
}

// heuristicSite resolves a site go/types could not type, by name within
// the call's own package: a method call binds when the receiver ident
// matches the declared receiver name (a cheap stand-in that separates
// `a.priceCart(...)` from `e.Add(...)`), a plain call binds to a plain
// function of that name.
func (g *callGraph) heuristicSite(n *cgNode, c callSite) []int {
	for _, cand := range g.byName[n.pkg][c.name] {
		if c.isMethod {
			sel := c.call.Fun.(*ast.SelectorExpr)
			if cand.isMeth && cand.recv != "" && identName(sel.X) == cand.recv {
				return []int{cand.id}
			}
		} else if !cand.isMeth {
			return []int{cand.id}
		}
	}
	return nil
}

// chaCandidates devirtualizes an interface call site by Class
// Hierarchy Analysis: every named non-interface type declared in a
// target package whose method set (value or pointer) implements the
// interface contributes its implementation of the called method.
func (g *callGraph) chaCandidates(fn *types.Func, iface *types.Interface) []int {
	var ids []int
	seen := map[int]bool{}
	for _, tp := range g.prog.targets {
		if tp.tpkg == nil {
			continue
		}
		scope := tp.tpkg.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			var recv types.Type
			switch {
			case types.Implements(named, iface):
				recv = named
			case types.Implements(types.NewPointer(named), iface):
				recv = types.NewPointer(named)
			default:
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(recv, true, fn.Pkg(), fn.Name())
			impl, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if node, ok := g.byFunc[impl.Origin()]; ok && !seen[node.id] {
				seen[node.id] = true
				ids = append(ids, node.id)
			}
		}
	}
	sort.Ints(ids)
	return ids
}

// condense runs Tarjan's SCC algorithm; components are emitted callees
// first, which is exactly the order the fixpoint wants.
func (g *callGraph) condense() {
	n := len(g.nodes)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next := 0
	var strong func(v int)
	strong = func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, edges := range g.nodes[v].callees {
			for _, w := range edges {
				if index[w] == -1 {
					strong(w)
					if low[w] < low[v] {
						low[v] = low[w]
					}
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
		}
		if low[v] == index[v] {
			var scc []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Ints(scc)
			g.sccs = append(g.sccs, scc)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == -1 {
			strong(v)
		}
	}
}

// summarize computes each node's transitive summary. Within an SCC the
// members iterate to a fixed point; dedup on leaf identity bounds every
// summary by the program's event sites, so the iteration terminates.
func (g *callGraph) summarize() {
	for _, scc := range g.sccs {
		for _, id := range scc {
			g.nodes[id].sum = newFuncSum()
		}
		for changed := true; changed; {
			changed = false
			for _, id := range scc {
				n := g.nodes[id]
				s := g.summarizeOne(n)
				if len(s.events) != len(n.sum.events) || len(s.tmpls) != len(n.sum.tmpls) {
					changed = true
				}
				n.sum = s
			}
			if len(scc) == 1 && !g.selfCall(scc[0]) {
				break // no recursion: one pass is the fixed point
			}
		}
	}
}

func (g *callGraph) selfCall(id int) bool {
	for _, edges := range g.nodes[id].callees {
		for _, w := range edges {
			if w == id {
				return true
			}
		}
	}
	return false
}

// summarizeOne merges a node's local events/templates with its
// callees' summaries, interleaved in call-site position order so the
// summary preserves acquisition order.
func (g *callGraph) summarizeOne(n *cgNode) *funcSum {
	s := newFuncSum()
	f := n.facts
	spliceAt := func(ci int, c callSite) {
		for _, calleeID := range n.callees[ci] {
			callee := g.nodes[calleeID]
			if callee.sum == nil || opensTxn(callee.facts) {
				continue // in-progress SCC round, or a txn boundary
			}
			disp := g.display(n, callee)
			for _, se := range callee.sum.events {
				s.addEvent(sumEvent{
					kind: se.kind, file: se.file, line: se.line,
					uncond: se.uncond && !c.inCond,
					entTab: se.entTab, col: se.col,
					path: prepend(disp, se.path),
				})
			}
			for _, st := range callee.sum.tmpls {
				s.addTmpl(sumTmpl{
					kind: st.kind, file: st.file, line: st.line,
					sql: st.sql, table: st.table, col: st.col,
					path: prepend(disp, st.path),
				})
			}
		}
	}
	ei, ci := 0, 0
	for ei < len(f.events) || ci < len(f.calls) {
		if ci >= len(f.calls) || (ei < len(f.events) && f.events[ei].pos <= f.calls[ci].pos) {
			ev := f.events[ei]
			s.addEvent(sumEvent{
				kind: ev.kind, file: f.file, line: ev.line,
				uncond: ev.uncond, entTab: ev.entTab, col: ev.col,
			})
			ei++
			continue
		}
		spliceAt(ci, f.calls[ci])
		ci++
	}
	ti, cj := 0, 0
	for ti < len(f.tmpls) || cj < len(f.calls) {
		if cj >= len(f.calls) || (ti < len(f.tmpls) && f.tmpls[ti].pos <= f.calls[cj].pos) {
			t := f.tmpls[ti]
			s.addTmpl(sumTmpl{
				kind: t.kind, file: f.file, line: t.line,
				sql: t.sql, table: t.table, col: t.col,
			})
			ti++
			continue
		}
		for _, calleeID := range n.callees[cj] {
			callee := g.nodes[calleeID]
			if callee.sum == nil || opensTxn(callee.facts) {
				continue
			}
			disp := g.display(n, callee)
			for _, st := range callee.sum.tmpls {
				s.addTmpl(sumTmpl{
					kind: st.kind, file: st.file, line: st.line,
					sql: st.sql, table: st.table, col: st.col,
					path: prepend(disp, st.path),
				})
			}
		}
		cj++
	}
	return s
}

// splice folds every resolved callee's summary back into the caller's
// facts as summary events/templates anchored at the call site. Dedup is
// scoped per leaf identity AND per call-site context (innermost loop
// body plus conditionality): a diamond — two call paths to one
// acquisition from the same context — and recursion (a function
// reaching its own events transitively) contribute each site once,
// while a callee invoked both before a loop and inside it keeps the
// in-loop occurrence, since that per-element acquisition is exactly
// what the unordered-locks check inspects. Seeding with the caller's
// own leaves keeps recursion from re-adding local events.
func (g *callGraph) splice() {
	for _, n := range g.nodes {
		f := n.facts
		seenEv := map[string]bool{}
		for _, ev := range f.events {
			seenEv[eventKey(ev.kind, f.file, ev.line, ev.entTab, ev.col)+spliceCtx(f, ev.pos)] = true
		}
		seenTm := map[string]bool{}
		for _, t := range f.tmpls {
			seenTm[tmplKey(t.kind, f.file, t.line, t.sql, t.table, t.col)+spliceCtx(f, t.pos)] = true
		}
		var addEv []event
		var addTm []tmpl
		for ci, c := range f.calls {
			ctx := spliceCtx(f, c.pos)
			for _, calleeID := range n.callees[ci] {
				callee := g.nodes[calleeID]
				if opensTxn(callee.facts) {
					continue
				}
				disp := g.display(n, callee)
				for _, se := range callee.sum.events {
					k := eventKey(se.kind, se.file, se.line, se.entTab, se.col) + ctx
					if seenEv[k] {
						continue
					}
					seenEv[k] = true
					addEv = append(addEv, event{
						kind: se.kind, pos: c.pos, line: c.line, summary: true,
						uncond: se.uncond && !c.inCond,
						entTab: se.entTab, col: se.col,
						leafFile: se.file, leafLine: se.line,
						path: prepend(disp, se.path),
					})
				}
				for _, st := range callee.sum.tmpls {
					k := tmplKey(st.kind, st.file, st.line, st.sql, st.table, st.col) + ctx
					if seenTm[k] {
						continue
					}
					seenTm[k] = true
					addTm = append(addTm, tmpl{
						kind: st.kind, pos: c.pos, line: st.line,
						sql: st.sql, table: st.table, col: st.col,
						file: st.file, path: prepend(disp, st.path),
					})
				}
			}
		}
		f.events = append(f.events, addEv...)
		sort.SliceStable(f.events, func(i, j int) bool { return f.events[i].pos < f.events[j].pos })
		f.tmpls = append(f.tmpls, addTm...)
		sort.SliceStable(f.tmpls, func(i, j int) bool { return f.tmpls[i].pos < f.tmpls[j].pos })
		f.orderSends()
	}
}

// spliceCtx renders the dedup context of one caller position: the
// innermost tracked loop body containing it (loops are appended in
// preorder, so the last containing entry is the innermost) and whether
// it sits inside any conditional/loop body at all. Two occurrences of
// the same leaf merge only when their sites share a context — what the
// downstream checks distinguish: unordered-locks asks "is there a lock
// event in THIS loop body", and a spliced event's conditionality is
// taken from its own site, not from whichever site happened first.
func spliceCtx(f *fnFacts, pos token.Pos) string {
	loop := -1
	for i, lp := range f.loops {
		if pos >= lp.body[0] && pos < lp.body[1] {
			loop = i
		}
	}
	cond := false
	for _, r := range f.conds {
		if pos >= r[0] && pos < r[1] {
			cond = true
			break
		}
	}
	return fmt.Sprintf("|L%d|C%t", loop, cond)
}

// opensTxn reports whether a function's body opens its own transaction
// (Begin or Transactional). A call to such a function is a transaction
// boundary: its statements run in the callee's transaction, so they
// never extend the caller's template or event stream — this is what
// keeps workload drivers that invoke handler APIs in sequence from
// looking like one phantom mega-transaction. Only local evBegin counts:
// boundary callees are never spliced, so the marker cannot propagate.
func opensTxn(f *fnFacts) bool {
	for _, ev := range f.events {
		if ev.kind == evBegin && !ev.summary {
			return true
		}
	}
	return false
}

// display names a callee from the caller's point of view:
// `drainKids`, `App.priceProducts`, or `dao.LockProduct` /
// `store.DBStore.Save` across packages.
func (g *callGraph) display(from, to *cgNode) string {
	name := to.name
	if to.isMeth && to.recvTyp != "" {
		name = to.recvTyp + "." + name
	}
	if to.pkg != from.pkg {
		name = to.pkg.name + "." + name
	}
	return name
}

func prepend(head string, tail []string) []string {
	out := make([]string, 0, len(tail)+1)
	out = append(out, head)
	return append(out, tail...)
}
