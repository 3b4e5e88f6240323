package lockmodel

import (
	"slices"
	"strconv"

	"weseer/internal/schema"
	"weseer/internal/smt"
	"weseer/internal/sqlast"
	"weseer/internal/trace"
)

// Model is a statement's lock model: per table it accesses, its locks
// there as the reader side of a conflict (ReadLocks), restricted with
// usePlans to its recorded plan, and its aliases of the table. It reads
// the SQL text, the result's Empty and the plan, all of which a skeleton
// key covers, so one Model serves every statement of a key.
type Model struct {
	scm      *schema.Schema
	st       *trace.Stmt
	aliasMap map[string]string
	tables   []tableModel
}

type tableModel struct {
	table   string
	locks   []Lock
	aliases []string // the statement's aliases of the table, sorted
}

// ModelOf returns the lock model of the skeleton's statements.
func ModelOf(sk *Skeleton, scm *schema.Schema, usePlans bool) *Model {
	return newModel(sk.st, scm, usePlans, sk.st.Parsed.Tables()...)
}

// newModel returns st's lock model on the given tables.
func newModel(st *trace.Stmt, scm *schema.Schema, usePlans bool, tables ...string) *Model {
	m := &Model{scm: scm, st: st, aliasMap: sqlast.AliasMapOf(st.Parsed)}
	for _, table := range tables {
		if m.on(table) == nil { // a self-join names its table twice
			m.tables = append(m.tables, tableModel{table: table,
				locks: planLocks(st, scm, table, usePlans), aliases: sqlast.AliasesOf(st.Parsed, table)})
		}
	}
	return m
}

func (m *Model) stmt() *trace.Stmt { return m.st }

// on returns the model's entry for the table, nil if it has none.
func (m *Model) on(table string) *tableModel {
	for i := range m.tables {
		if m.tables[i].table == table {
			return &m.tables[i]
		}
	}
	return nil
}

// planLocks returns st's ReadLocks on the table, restricted with usePlans
// to its recorded plan.
func planLocks(st *trace.Stmt, scm *schema.Schema, table string, usePlans bool) []Lock {
	locks := ReadLocks(st.Parsed, scm, table, st.Res != nil && st.Res.Empty)
	if usePlans {
		return FilterByPlan(locks, st.Plan)
	}
	return locks
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
	key, names := SkeletonKey(nil, nil, st)
	sk := &Skeleton{Key: string(key), Names: names}
	sk.st = renameStmt(st, func(n string) string { return "\x00" + strconv.Itoa(slices.Index(names, n)) })
	return sk
}

// SkeletonKey appends the statement's skeleton key to b and its names to
// names, copying nothing: SkeletonOf's Key and Names, for a caller that
// needs the renamed statement only once per key.
func SkeletonKey(b []byte, names []string, st *trace.Stmt) ([]byte, []string) {
	base := len(names)
	see := func(n string) string {
		if !slices.Contains(names[base:], n) {
			names = append(names, n)
		}
		return n
	}
	// placeholder renders a name as its renamed copy's quoted "\x00i".
	placeholder := func(b []byte, n string) []byte {
		return append(strconv.AppendInt(append(b, `"\x00`...), int64(slices.Index(names[base:], n)), 10), '"')
	}
	b = strconv.AppendQuote(b, st.SQL)
	for _, p := range st.Params {
		e, ok := p.Sym, p.Sym != nil // what unifier.operand reads
		if ok {
			smt.Rename(e, see) // numbers e's names in the order a copy's rename meets them
		} else {
			e, ok = datumExpr(p.Concrete)
		}
		if b = append(b, '|'); ok {
			b = smt.AppendTypedString(b, e, placeholder)
		}
	}
	if res := st.Res; res != nil {
		b = strconv.AppendBool(append(b, '#'), res.Empty)
		for _, c := range res.Cols {
			b = strconv.AppendQuote(b, c)
		}
		for _, row := range res.Sym {
			b = append(b, '/')
			for _, v := range row {
				see(v.Name)
				b = append(placeholder(b, v.Name), '0'+byte(v.S))
			}
		}
	}
	for _, p := range st.Plan {
		b = strconv.AppendQuote(strconv.AppendQuote(strconv.AppendQuote(append(b, '@'), p.Alias), p.Table), p.Index)
	}
	return b, names
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

// EdgeTemplate builds the C-edge between statements of models x and y
// over their skeletons' placeholders: the lock filter (Collide) and, if
// their locks collide, the disjunction of conflictCond over the
// orientations Oriented admits, range variables prefixed "rng."+rowPrefix.
// Equal skeleton keys build equal templates.
func EdgeTemplate(x, y *Model, rowPrefix string) *Edge {
	ry := *y
	ry.st = renameStmt(y.st, func(n string) string { return "\x01" + n[1:] })
	e := &Edge{Cond: smt.False, Collide: collide(x, &ry)}
	if e.Collide {
		nm := NewNamer("rng." + rowPrefix)
		var alts []smt.Expr
		orient(x, &ry, (*Model).stmt, func(w, r *Model, table string) bool {
			alts = append(alts, conflictCond(w, r, table, rowPrefix, nm))
			return false
		})
		e.Cond = smt.Or(alts...)
		e.Vars = smt.VarNames(e.Cond)
	}
	return e
}

// collide is PotentialConflict over two statements' models.
func collide(x, y *Model) bool {
	return orient(x, y, (*Model).stmt, func(w, r *Model, table string) bool {
		return Conflicting(w.on(table).locks, r.on(table).locks)
	})
}

// EdgeCond returns the instance of template e between statements whose
// skeletons' names are x and y, x's symbols in the space px and y's in py.
func EdgeCond(e *Edge, x, y []string, px, py string) smt.Expr {
	prefix, names := [2]string{px, py}, [2][]string{x, y}
	return smt.Rename(e.Cond, func(n string) string {
		if p := Placeholder(n); p >= 0 {
			return prefix[p&1] + names[p&1][p>>1]
		}
		return n
	})
}
