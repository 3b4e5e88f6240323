package lockmodel

import (
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"weseer/internal/schema"
	"weseer/internal/smt"
	"weseer/internal/sqlast"
	"weseer/internal/trace"
)

// Templates memoizes the lock model per statement template — the locks
// of a template on a table, and C-edge conditions per pair of statement
// skeletons — so that the many recorded instances of one template compute
// it once. A Templates belongs to one analysis, is safe for concurrent
// use, and hands out shared values that must not be modified.
type Templates struct {
	scm *schema.Schema
	// usePlans restricts each statement's locks to its recorded execution
	// plan (FilterByPlan).
	usePlans bool
	m        sync.Map // templateKey → *templateLocks
	skels    sync.Map // *trace.Stmt → *skeleton
	ids      sync.Map // skeleton key → int32
	nids     atomic.Int32
	edges    sync.Map // edgeKey → *Edge, over placeholders
	insts    sync.Map // instanceKey → *Edge
}

// NewTemplates returns an empty memo over a schema; with usePlans, every
// statement holds only the locks of its recorded execution plan.
func NewTemplates(scm *schema.Schema, usePlans bool) *Templates {
	return &Templates{scm: scm, usePlans: usePlans}
}

type templateKey struct {
	sql, table string
	empty      bool // shared locks depend on whether the read came back empty
}

type templateLocks struct {
	// locks are the statement's locks on the table as the "reader" side of
	// a conflict (ReadLocks): GenExclusiveLocks when it writes the table.
	locks    []Lock
	aliases  []string // the statement's aliases of the table, sorted
	aliasMap map[string]string
}

// of returns the template-level model of the statement on the table.
func (t *Templates) of(st *trace.Stmt, table string) *templateLocks {
	empty := st.Res != nil && st.Res.Empty
	k := templateKey{sql: st.SQL, table: table, empty: empty}
	if v, ok := t.m.Load(k); ok {
		return v.(*templateLocks)
	}
	tl := &templateLocks{
		locks:    ReadLocks(st.Parsed, t.scm, table, empty),
		aliases:  sqlast.AliasesOf(st.Parsed, table),
		aliasMap: sqlast.AliasMapOf(st.Parsed),
	}
	// Workers may race to build one template; the builds are equal.
	v, _ := t.m.LoadOrStore(k, tl)
	return v.(*templateLocks)
}

// locksFor returns the template's locks as the instance st holds them:
// restricted, with usePlans, to its recorded execution plan. The plan
// belongs to the instance, so the filtered set is not memoized.
func (t *Templates) locksFor(tl *templateLocks, st *trace.Stmt) []Lock {
	if t.usePlans {
		return FilterByPlan(tl.locks, st.Plan)
	}
	return tl.locks
}

// skeleton is a recorded statement with its i-th distinct symbol (variable
// or array root, first occurrence over parameters, then result cells; a
// NULL cell's empty name too, as in any renamed copy) renamed to "\x00i" in
// st and bound to names[i]. key renders all of st a conflict condition
// reads (SQL, what each parameter stands for, the result's Empty, Cols and
// cell sorts, the plan): equal keys, equal conditions up to the bindings.
type skeleton struct {
	id    int32 // the key's, interned
	key   string
	names []string
	st    *trace.Stmt
}

// skeletonOf returns the statement's skeleton, computed once per run.
func (t *Templates) skeletonOf(st *trace.Stmt) *skeleton {
	if v, ok := t.skels.Load(st); ok {
		return v.(*skeleton)
	}
	sk := &skeleton{}
	index := map[string]string{}
	sk.st = renameStmt(st, func(n string) string {
		p, ok := index[n]
		if !ok {
			p = "\x00" + strconv.Itoa(len(sk.names))
			index[n], sk.names = p, append(sk.names, n)
		}
		return p
	})
	b := strconv.AppendQuote(nil, st.SQL)
	for _, p := range sk.st.Params {
		e, ok := p.Sym, p.Sym != nil // what unifier.operand reads
		if !ok {
			e, ok = datumExpr(p.Concrete)
		}
		if b = append(b, '|'); ok {
			b = append(b, smt.TypedString(e)...)
		}
	}
	if res := sk.st.Res; res != nil {
		b = strconv.AppendBool(append(b, '#'), res.Empty)
		for _, c := range res.Cols {
			b = strconv.AppendQuote(b, c)
		}
		for _, row := range res.Sym {
			b = append(b, '/')
			for _, v := range row {
				b = append(strconv.AppendQuote(b, v.Name), '0'+byte(v.S))
			}
		}
	}
	for _, p := range st.Plan {
		b = strconv.AppendQuote(strconv.AppendQuote(strconv.AppendQuote(append(b, '@'), p.Alias), p.Table), p.Index)
	}
	sk.key = string(b)
	id, _ := t.ids.LoadOrStore(sk.key, t.nids.Add(1))
	sk.id = id.(int32)
	v, _ := t.skels.LoadOrStore(st, sk)
	return v.(*skeleton)
}

// renameStmt returns a shallow copy of st whose parameter and result
// symbols are passed through f, parameters first.
func renameStmt(st *trace.Stmt, f func(string) string) *trace.Stmt {
	v := *st
	v.Params = slices.Clone(st.Params)
	for i, p := range v.Params {
		if p.Sym != nil { // a concrete-only parameter has none
			v.Params[i].Sym = smt.Rename(p.Sym, f)
		}
	}
	if st.Res != nil {
		res := *st.Res
		res.Sym = make([][]smt.Var, len(st.Res.Sym))
		for i, row := range st.Res.Sym {
			for _, c := range row {
				res.Sym[i] = append(res.Sym[i], smt.Var{Name: f(c.Name), S: c.S})
			}
		}
		v.Res = &res
	}
	return &v
}

// edgeKey identifies a C-edge template by skeleton keys, instanceKey an
// instance by statements and symbol spaces.
type edgeKey struct{ x, y, rowPrefix string }
type instanceKey struct {
	x, y              *trace.Stmt
	px, py, rowPrefix string
}

// Edge is a C-edge condition; a template (EdgeTemplate) lists its variables
// and is over placeholders ("\x00i" for x's i-th symbol, "\x01i" for y's).
type Edge struct {
	Cond smt.Expr
	Vars []string // a template's only
}

// Skeleton returns st's skeleton id, equal ids for equal C-edge templates,
// and its bindings: names[i] is what placeholder i stands for.
func (t *Templates) Skeleton(st *trace.Stmt) (id int32, names []string) {
	sk := t.skeletonOf(st)
	return sk.id, sk.names
}

// EdgeTemplate returns the C-edge between x and y over their skeletons'
// placeholders, built once per skeleton pair: ConflictCond over the
// orientations Oriented admits, range variables prefixed "rng."+rowPrefix.
func (t *Templates) EdgeTemplate(x, y *trace.Stmt, rowPrefix string) *Edge {
	sx, sy := t.skeletonOf(x), t.skeletonOf(y)
	k := edgeKey{x: sx.key, y: sy.key, rowPrefix: rowPrefix}
	v, ok := t.edges.Load(k)
	if !ok {
		ys := renameStmt(sy.st, func(n string) string { return "\x01" + n[1:] })
		cond := t.edgeCond(sx.st, ys, rowPrefix, NewNamer("rng."+rowPrefix))
		// Workers may race to build one template; the builds are equal.
		v, _ = t.edges.LoadOrStore(k, &Edge{Cond: cond, Vars: smt.VarNames(cond)})
	}
	return v.(*Edge)
}

// EdgeCond returns the C-edge between x, its symbols in the space px, and
// y in py: EdgeTemplate renamed once per (x, y, px, py), so cycles
// sharing a C-edge share its condition.
func (t *Templates) EdgeCond(x, y *trace.Stmt, px, py, rowPrefix string) *Edge {
	ik := instanceKey{x: x, y: y, px: px, py: py, rowPrefix: rowPrefix}
	if v, ok := t.insts.Load(ik); ok {
		return v.(*Edge)
	}
	e := t.EdgeTemplate(x, y, rowPrefix)
	prefix, names := [2]string{px, py}, [2][]string{t.skeletonOf(x).names, t.skeletonOf(y).names}
	f := func(n string) string {
		if n[0] > 1 { // not a placeholder: a unified-row or range variable
			return n
		}
		i, _ := strconv.Atoi(n[1:])
		return prefix[n[0]] + names[n[0]][i]
	}
	in := &Edge{Cond: smt.Rename(e.Cond, f)}
	t.insts.Store(ik, in) // racing workers store equal instances
	return in
}

// EdgeTemplates counts the C-edge condition templates built so far: memo
// entries, so the count does not depend on the parallelism.
func (t *Templates) EdgeTemplates() (n int) {
	t.edges.Range(func(any, any) bool { n++; return true })
	return n
}
