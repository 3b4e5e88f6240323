package lockmodel

import (
	"fmt"
	"slices"

	"weseer/internal/minidb"
	"weseer/internal/schema"
	"weseer/internal/smt"
	"weseer/internal/sqlast"
	"weseer/internal/trace"
)

// Alg. 3: conflict conditions. For a potentially conflicting pair — sqlw
// writing a table sqlr accesses — the condition asserts that one database
// row r satisfies both statements' (unified) query conditions and equals
// one of sqlr's actually fetched rows. Range-lock conflicts add enlarged
// conditions: a range lock's real protection span is a superset of its
// predicates, so fresh bound variables extend the range.

// Namer mints fresh variables for range enlargement within one formula.
type Namer struct {
	prefix string
	n      int
}

// NewNamer returns a namer whose fresh variables carry the given prefix.
func NewNamer(prefix string) *Namer { return &Namer{prefix: prefix} }

func (nm *Namer) fresh(hint string, sort smt.Sort) smt.Var {
	nm.n++
	return smt.NewVar(fmt.Sprintf("%s%s%d", nm.prefix, hint, nm.n), sort)
}

// GenConflictCond generates the conflict condition between a write
// statement w and a statement r over their common table (Alg. 3). The
// returned expression is in terms of r's and w's symbolic parameters,
// r's symbolic result aliases, and fresh unified-row variables prefixed
// with rowPrefix (e.g. "r1."). It returns False when the statements'
// modeled locks cannot collide.
func GenConflictCond(w, r *trace.Stmt, scm *schema.Schema, comTable, rowPrefix string, nm *Namer, usePlans bool) smt.Expr {
	if w.Parsed.WriteTable() != comTable {
		return smt.False
	}
	return conflictCond(newModel(w, scm, usePlans, comTable), newModel(r, scm, usePlans, comTable), comTable, rowPrefix, nm)
}

// conflictCond is GenConflictCond over the statements' models, w's
// writing comTable.
func conflictCond(w, r *Model, comTable, rowPrefix string, nm *Namer) smt.Expr {
	wTab, rTab := w.on(comTable), r.on(comTable)
	if !Conflicting(wTab.locks, rTab.locks) {
		return smt.False
	}

	uc := &unifier{scm: r.scm, rowPrefix: rowPrefix, aliases: r.aliasMap}
	readCond := uc.condExpr(sqlast.QueryCondOf(r.st.Parsed), r.st)
	writeCond := unifiedCondForWrite(w.st.Parsed, w.st, w.scm, wTab.aliases, rTab.aliases, rowPrefix)
	assoc := associatedCond(r.st, rowPrefix)
	conflict := smt.And(readCond, writeCond, assoc)

	// Range locks: for each shared range lock on an index the writer also
	// locks, the enlarged range condition (conjoined with the writer's
	// unified condition so the model pins the written row) is an
	// alternative way the statements conflict.
	for _, lr := range rTab.locks {
		if lr.Gran != Range || lr.Exclusive {
			continue
		}
		if !slices.ContainsFunc(wTab.locks, func(lw Lock) bool { return Collide(lw, lr) }) {
			continue
		}
		rangeCond := genRangeConflictCond(lr, uc, r.st, nm)
		if rangeCond != nil {
			conflict = smt.Or(conflict, smt.And(rangeCond, writeCond))
		}
	}
	return smt.Simplify(conflict)
}

// unifier rewrites predicates into smt expressions: column references
// become unified-row variables ("r1.p.ID"), parameters become their
// recorded symbolic expressions, constants become literals.
type unifier struct {
	scm       *schema.Schema
	rowPrefix string
	aliases   map[string]string // alias → table
	// rename rewrites the writer's aliases of the common table to the
	// reader's alias, so both conditions constrain the same unified row.
	rename map[string]string
}

func (u *unifier) colVar(alias, col string) smt.Expr {
	table := u.aliases[alias]
	t := u.scm.Table(table)
	if t == nil || t.Column(col) == nil {
		// Unknown column: leave an opaque integer variable; the formula
		// stays conservative.
		return smt.NewVar(u.rowPrefix+alias+"."+col, smt.SortInt)
	}
	return smt.NewVar(u.rowPrefix+alias+"."+col, t.Column(col).Type.Sort())
}

// operand converts one operand using statement st's recorded parameters.
func (u *unifier) operand(o sqlast.Operand, st *trace.Stmt) (smt.Expr, bool) {
	switch o.Kind {
	case sqlast.Col:
		if alias, ok := u.rename[o.Table]; ok {
			return u.colVar(alias, o.Column), true
		}
		return u.colVar(o.Table, o.Column), true
	case sqlast.Param:
		if st != nil && o.Ord < len(st.Params) {
			if s := st.Params[o.Ord].Sym; s != nil {
				return s, true
			}
			return datumExpr(st.Params[o.Ord].Concrete)
		}
		return nil, false
	case sqlast.ConstInt:
		return smt.Int(o.Int), true
	case sqlast.ConstReal:
		return smt.RealFromRat(o.Real), true
	case sqlast.ConstStr:
		return smt.Str(o.Str), true
	case sqlast.Null:
		return nil, false
	}
	return nil, false
}

// CheckStmt reports what in st the lock model cannot read against scm,
// and would panic on: a table the schema lacks, or a predicate whose
// operands, as the unifier translates them, smt.Compare refuses — a
// string or a Boolean against another sort, or compared by order.
func CheckStmt(st *trace.Stmt, scm *schema.Schema) error {
	for _, table := range st.Parsed.Tables() {
		if scm.Table(table) == nil {
			return fmt.Errorf("table %s is not in the schema", table)
		}
	}
	u := &unifier{scm: scm, aliases: sqlast.AliasMapOf(st.Parsed)}
	onlyEq := func(s smt.Sort) bool { return s == smt.SortString || s == smt.SortBool }
	check := func(preds []sqlast.Pred) error {
		for _, p := range preds {
			l, lok := u.operand(p.L, st)
			r, rok := u.operand(p.R, st)
			if p.IsNull || !lok || !rok {
				continue
			}
			if ls, rs := l.Sort(), r.Sort(); (onlyEq(ls) || onlyEq(rs)) && (ls != rs || p.Op != smt.EQ && p.Op != smt.NE) {
				return fmt.Errorf("predicate %s compares %s with %s", p, ls, rs)
			}
		}
		return nil
	}
	cond := sqlast.QueryCondOf(st.Parsed)
	if err := check(cond.Preds); err != nil {
		return err
	}
	for _, g := range cond.Ors {
		for _, dj := range g.Disjuncts {
			if err := check(dj); err != nil {
				return err
			}
		}
	}
	return nil
}

// datumExpr converts a concrete parameter (one without a symbolic
// shadow, e.g. an application-generated key) into a literal expression.
func datumExpr(d minidb.Datum) (smt.Expr, bool) {
	if d.Null {
		return nil, false
	}
	switch d.Kind {
	case minidb.KInt:
		return smt.Int(d.I), true
	case minidb.KReal:
		return smt.RealFromRat(d.R), true
	case minidb.KStr:
		return smt.Str(d.S), true
	}
	return nil, false
}

// predExpr converts one predicate; untranslatable predicates (IS NULL,
// NULL operands) drop to True, which is conservative: dropping a
// conjunct can only keep a possible deadlock alive.
func (u *unifier) predExpr(p sqlast.Pred, st *trace.Stmt) smt.Expr {
	if p.IsNull {
		return smt.True
	}
	l, ok := u.operand(p.L, st)
	if !ok {
		return smt.True
	}
	r, ok := u.operand(p.R, st)
	if !ok {
		return smt.True
	}
	if l.Sort() != r.Sort() && (l.Sort() == smt.SortString || r.Sort() == smt.SortString) {
		return smt.True
	}
	return smt.Compare(p.Op, l, r)
}

// condExpr converts a full query condition (conjunction plus disjunctive
// groups) — GenUnifiedCondForRead of Alg. 3.
func (u *unifier) condExpr(c sqlast.Cond, st *trace.Stmt) smt.Expr {
	var parts []smt.Expr
	for _, p := range c.Preds {
		parts = append(parts, u.predExpr(p, st))
	}
	for _, g := range c.Ors {
		var djs []smt.Expr
		for _, dj := range g.Disjuncts {
			var conj []smt.Expr
			for _, p := range dj {
				conj = append(conj, u.predExpr(p, st))
			}
			djs = append(djs, smt.And(conj...))
		}
		parts = append(parts, smt.Or(djs...))
	}
	return smt.And(parts...)
}

// unifiedCondForWrite maps the writer's condition onto each of the
// reader's aliases of the common table and disjoins the results
// (GenUnifiedCondForWrite).
func unifiedCondForWrite(wStmt sqlast.Stmt, w *trace.Stmt, scm *schema.Schema, wAliases, rAliases []string, rowPrefix string) smt.Expr {
	table, cond := wStmt.WriteTable(), sqlast.QueryCondOf(wStmt)
	var djs []smt.Expr
	for _, ra := range rAliases {
		u := &unifier{scm: scm, rowPrefix: rowPrefix, aliases: map[string]string{ra: table}, rename: map[string]string{}}
		for _, wa := range wAliases {
			u.rename[wa] = ra
		}
		djs = append(djs, u.condExpr(cond, w))
	}
	return smt.Or(djs...)
}

// associatedCond ties the unified row to one of the reader's actually
// fetched rows (GenAssociatedCond): there exists a result row whose every
// column equals the corresponding unified-row variable.
func associatedCond(r *trace.Stmt, rowPrefix string) smt.Expr {
	if r.Res == nil {
		// The reader is itself a write statement: its "result" is the set
		// of rows matching its condition; the unified write condition
		// already constrains r, so no association is needed.
		return smt.True
	}
	if r.Res.Empty {
		return smt.False // no fetched rows: only range locks can conflict
	}
	var rows []smt.Expr
	for _, row := range r.Res.Sym {
		var eqs []smt.Expr
		for ci, v := range row {
			if v.Name == "" {
				continue // NULL cell: no alias
			}
			eqs = append(eqs, smt.Eq(smt.NewVar(rowPrefix+r.Res.Cols[ci], v.S), v))
		}
		rows = append(rows, smt.And(eqs...))
	}
	return smt.Or(rows...)
}

// genRangeConflictCond transforms a shared range lock's predicates into
// the enlarged range condition (Alg. 3, GenRangeConflictCond): equalities
// and disequalities are first rewritten into inequalities, whose bounds
// are then relaxed with fresh variables varl/varg, modeling that the
// lock's true protection range (gap/next-key span) is a superset of its
// predicates.
func genRangeConflictCond(lr Lock, u *unifier, r *trace.Stmt, nm *Namer) smt.Expr {
	var parts []smt.Expr
	for _, p := range lr.Preds {
		if p.IsNull {
			continue
		}
		// Identify the indexed-column side as "var".
		varOp, expOp := p.L, p.R
		op := p.Op
		if !(varOp.Kind == sqlast.Col && varOp.Table == lr.Alias && lr.Index != nil && lr.Index.Covers(varOp.Column)) {
			varOp, expOp = p.R, p.L
			op = op.Flip()
		}
		if varOp.Kind != sqlast.Col {
			continue
		}
		v, ok := u.operand(varOp, r)
		if !ok {
			continue
		}
		e, ok := u.operand(expOp, r)
		if !ok {
			continue
		}
		if v.Sort() == smt.SortString || e.Sort() == smt.SortString {
			// Strings admit only =/!=; no range structure to enlarge.
			parts = append(parts, smt.Compare(op, v, e))
			continue
		}
		switch op {
		case smt.EQ: // var = exp → var ≥ exp ∧ var ≤ exp, then enlarge
			parts = append(parts, enlargeLower(v, e, false, nm), enlargeUpper(v, e, false, nm))
		case smt.NE: // var != exp → var < exp ∨ var > exp, enlarged
			parts = append(parts, smt.Or(enlargeUpper(v, e, true, nm), enlargeLower(v, e, true, nm)))
		case smt.LT:
			parts = append(parts, enlargeUpper(v, e, true, nm))
		case smt.LE:
			parts = append(parts, enlargeUpper(v, e, false, nm))
		case smt.GT:
			parts = append(parts, enlargeLower(v, e, true, nm))
		case smt.GE:
			parts = append(parts, enlargeLower(v, e, false, nm))
		}
	}
	if len(parts) == 0 {
		// A range lock with no translatable predicates protects an
		// unknown superset: conservatively, everything.
		return smt.True
	}
	return smt.And(parts...)
}

// enlargeUpper implements lines 20–21 of Alg. 3: an upper bound exp is
// relaxed to a fresh varg at or beyond it.
func enlargeUpper(v, e smt.Expr, strict bool, nm *Namer) smt.Expr {
	varg := nm.fresh("varg", numSortOf(v))
	if strict { // var < exp → var ≤ varg ∧ exp ≤ varg
		return smt.And(smt.Le(v, varg), smt.Le(e, varg))
	}
	// var ≤ exp → var ≤ varg ∧ exp < varg
	return smt.And(smt.Le(v, varg), smt.Lt(e, varg))
}

// enlargeLower implements lines 22–23: a lower bound exp is relaxed to a
// fresh varl at or below it.
func enlargeLower(v, e smt.Expr, strict bool, nm *Namer) smt.Expr {
	varl := nm.fresh("varl", numSortOf(v))
	if strict { // var > exp → var ≥ varl ∧ exp ≥ varl
		return smt.And(smt.Ge(v, varl), smt.Ge(e, varl))
	}
	// var ≥ exp → var ≥ varl ∧ exp > varl
	return smt.And(smt.Ge(v, varl), smt.Gt(e, varl))
}

func numSortOf(e smt.Expr) smt.Sort {
	if e.Sort() == smt.SortReal {
		return smt.SortReal
	}
	return smt.SortInt
}
