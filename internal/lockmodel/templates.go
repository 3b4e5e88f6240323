package lockmodel

import (
	"slices"
	"strconv"
	"sync"

	"weseer/internal/schema"
	"weseer/internal/smt"
	"weseer/internal/sqlast"
	"weseer/internal/trace"
)

// Templates is one analysis's lock model: it memoizes a statement
// template's locks on a table, computed once for its many recorded
// instances, builds C-edge templates over skeletons (its caller keeps them)
// and memoizes their instances. It is safe for concurrent use and hands out
// shared values that must not be modified.
type Templates struct {
	scm *schema.Schema
	// usePlans restricts each statement's locks to its recorded execution
	// plan (FilterByPlan).
	usePlans bool
	m        sync.Map // templateKey → *templateLocks
	insts    sync.Map // instanceKey → smt.Expr
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

// Skeleton is a recorded statement with its i-th distinct symbol (variable
// or array root, first occurrence over parameters, then result cells; a
// NULL cell's empty name too, as in any renamed copy) renamed to "\x00i"
// and bound to Names[i]. Key renders all of the statement a conflict
// condition reads (SQL, what each parameter stands for, the result's Empty,
// Cols and cell sorts, the plan): equal keys, equal C-edge templates up to
// the bindings.
type Skeleton struct {
	Key   string
	Names []string
	st    *trace.Stmt
}

// SkeletonOf returns the statement's skeleton.
func SkeletonOf(st *trace.Stmt) *Skeleton {
	sk := &Skeleton{}
	index := map[string]string{}
	sk.st = renameStmt(st, func(n string) string {
		p, ok := index[n]
		if !ok {
			p = "\x00" + strconv.Itoa(len(sk.Names))
			index[n], sk.Names = p, append(sk.Names, n)
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
	sk.Key = string(b)
	return sk
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

// instanceKey identifies a C-edge instance by its template, statements and
// symbol spaces.
type instanceKey struct {
	e      *Edge
	x, y   *Skeleton
	px, py string
}

// Edge is a C-edge template: whether the statements' modeled locks
// collide and, if they do, the condition over placeholders ("\x00i" for
// x's i-th symbol, "\x01i" for y's) with its variables; else False.
type Edge struct {
	Collide bool
	Cond    smt.Expr
	Vars    []string
}

// Placeholder decodes a template variable: 2i+s for binding i of
// statement s (0: x, 1: y), -1 for a fixed name, a unified-row or range
// variable.
func Placeholder(n string) int {
	if n[0] > 1 {
		return -1
	}
	i, _ := strconv.Atoi(n[1:])
	return 2*i + int(n[0])
}

// EdgeTemplate builds the C-edge between statements of skeletons x and y
// over their placeholders: the lock filter (collide) and, if their locks
// collide, edgeCond, range variables prefixed "rng."+rowPrefix. It does not
// memoize; equal skeleton keys build equal templates.
func (t *Templates) EdgeTemplate(x, y *Skeleton, rowPrefix string) *Edge {
	e := &Edge{Cond: smt.False, Collide: t.collide(x.st, y.st)}
	if e.Collide {
		ys := renameStmt(y.st, func(n string) string { return "\x01" + n[1:] })
		e.Cond = t.edgeCond(x.st, ys, rowPrefix, NewNamer("rng."+rowPrefix))
		e.Vars = smt.VarNames(e.Cond)
	}
	return e
}

// EdgeCond returns the condition of template e's C-edge between
// statements of skeletons x, its symbols in the space px, and y in py,
// renamed once per (e, x, y, px, py), so cycles sharing a C-edge share it.
func (t *Templates) EdgeCond(e *Edge, x, y *Skeleton, px, py string) smt.Expr {
	ik := instanceKey{e: e, x: x, y: y, px: px, py: py}
	if v, ok := t.insts.Load(ik); ok {
		return v.(smt.Expr)
	}
	prefix, names := [2]string{px, py}, [2][]string{x.Names, y.Names}
	in := smt.Rename(e.Cond, func(n string) string {
		if p := Placeholder(n); p >= 0 {
			return prefix[p&1] + names[p&1][p>>1]
		}
		return n
	})
	t.insts.Store(ik, in) // racing workers store equal instances
	return in
}
