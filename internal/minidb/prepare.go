package minidb

import (
	"fmt"

	"weseer/internal/smt"
	"weseer/internal/sqlast"
)

// A statement's life cycle is parse → prepare → execute: preparing derives,
// once per template, everything that does not depend on parameter values;
// executing binds the parameters and walks the plan.

// operand is a statement operand, a column reference resolved to the plan
// step whose row holds the column and its position there.
type operand struct {
	sqlast.Operand
	slot, pos int // Col only; slot -1 names no table of the statement
}

type pred struct {
	op     smt.CmpOp
	l, r   operand
	isNull bool
}

// cond is a sqlast.Cond over resolved operands.
type cond struct {
	preds []pred
	ors   [][][]pred
}

// assign writes one column of the written table's row.
type assign struct {
	pos int
	val operand
}

// access is one step of a nested-loop plan: how to fetch rows of alias.
type access struct {
	alias string
	ts    *tableStore
	ix    *index    // index used; nil means full scan of the primary
	eq    []operand // values bound to the equality prefix of ix.Columns
}

// prepared is the executable form of one statement template.
type prepared struct {
	stmt    sqlast.Stmt     // the parse DB.prepared files this form under; guarded by prepMu
	kind    sqlast.StmtKind // stmt's, for the executor to read without the lock
	nparams int
	// plan is a SELECT's join order, the one scan of an UPDATE or DELETE,
	// or just the written table of an INSERT.
	plan []access
	cond cond
	// cols is a SELECT's result header, shared by all its ResultSets, and
	// out its output columns.
	cols []string
	out  []operand
	// set is an INSERT's VALUES in column order, over a blank row of typed
	// NULLs, or an UPDATE's SET (setErr rejects it once its scan has run);
	// onDup is an UPSERT's assignments.
	blank  Row
	set    []assign
	onDup  []assign
	setErr error
	paths  []AccessPath
}

// prepare returns the statement's prepared form, building it on first
// sight of its text.
func (db *DB) prepare(st sqlast.Stmt) (*prepared, error) {
	db.prepMu.Lock()
	defer db.prepMu.Unlock()
	if p := db.prepared[st]; p != nil {
		return p, nil
	}
	text := st.String()
	p := db.preparedBy[text]
	if p == nil {
		var err error
		if p, err = db.build(st); err != nil {
			return nil, err
		}
		db.preparedBy[text] = p
	}
	delete(db.prepared, p.stmt)
	p.stmt = st
	db.prepared[st] = p
	return p, nil
}

func (db *DB) build(st sqlast.Stmt) (*prepared, error) {
	p := &prepared{kind: st.Kind(), nparams: st.NumParams()}
	scan := func(table string, where sqlast.Cond) {
		p.plan = planScan([]access{{alias: table, ts: db.table(table)}}, where.Preds)
		p.cond = p.compile(where)
	}
	switch s := st.(type) {
	case *sqlast.Select:
		from := []access{{alias: s.From.Alias(), ts: db.table(s.From.Table)}}
		for _, j := range s.Joins {
			from = append(from, access{alias: j.Ref.Alias(), ts: db.table(j.Ref.Table)})
		}
		qc := s.QueryCond()
		p.plan = planScan(from, qc.Preds)
		p.cond = p.compile(qc)
		cols := s.Cols
		if len(cols) == 0 {
			for _, f := range from {
				for _, c := range f.ts.meta.Columns {
					cols = append(cols, sqlast.ColRef{Table: f.alias, Column: c.Name})
				}
			}
		}
		p.cols, p.out = make([]string, 0, len(cols)), make([]operand, 0, len(cols))
		for _, c := range cols {
			o := p.operand(sqlast.C(c.Table, c.Column))
			if o.slot < 0 {
				return nil, fmt.Errorf("minidb: statement %q selects from unknown alias %s", st, c.Table)
			}
			p.cols = append(p.cols, c.Table+"."+c.Column)
			p.out = append(p.out, o)
		}
	case *sqlast.Update:
		scan(s.Table, s.Where)
		p.set = p.assigns(s.Set)
		// Reject primary-key updates: outside the supported subset.
		for _, a := range s.Set {
			if p.plan[0].ts.indexes[0].Covers(a.Column) {
				p.setErr = fmt.Errorf("minidb: updating primary key column %s.%s is unsupported", s.Table, a.Column)
				break
			}
		}
	case *sqlast.Delete:
		scan(s.Table, s.Where)
	case *sqlast.Insert:
		p.insert(db, s)
	case *sqlast.Upsert:
		p.insert(db, &s.Insert)
		p.onDup = p.assigns(s.OnDup)
	default:
		return nil, fmt.Errorf("minidb: unsupported statement %T", st)
	}
	if p.blank != nil {
		// An INSERT scans nothing; it writes the primary and every secondary.
		for _, ix := range p.plan[0].ts.indexes {
			p.paths = append(p.paths, AccessPath{Alias: ix.Table, Table: ix.Table, Index: ix.Name, EqColumns: ix.Columns})
		}
		return p, nil
	}
	for i := range p.plan {
		ac := &p.plan[i]
		for j := range ac.eq {
			ac.eq[j] = p.operand(ac.eq[j].Operand)
		}
		ap := AccessPath{Alias: ac.alias, Table: ac.ts.meta.Name}
		if ac.ix != nil {
			ap.Index, ap.EqColumns = ac.ix.Name, ac.ix.Columns[:len(ac.eq):len(ac.eq)]
		}
		p.paths = append(p.paths, ap)
	}
	return p, nil
}

func (p *prepared) insert(db *DB, ins *sqlast.Insert) {
	ts := db.table(ins.Table)
	p.plan = []access{{alias: ins.Table, ts: ts}}
	p.blank, p.set = make(Row, len(ts.meta.Columns)), make([]assign, 0, len(ins.Values))
	for i, c := range ts.meta.Columns {
		p.blank[i] = NullDatum(KindOf(c.Type))
		if op, ok := ins.ValueOf(c.Name); ok {
			p.set = append(p.set, assign{pos: i, val: p.operand(op)})
		}
	}
}

func (p *prepared) assigns(in []sqlast.Assign) []assign {
	out := make([]assign, len(in))
	for i, a := range in {
		out[i] = assign{pos: p.plan[0].ts.col(a.Column), val: p.operand(a.Value)}
	}
	return out
}

func (p *prepared) operand(o sqlast.Operand) operand {
	out := operand{Operand: o, slot: -1}
	for i, ac := range p.plan {
		if o.Kind == sqlast.Col && ac.alias == o.Table {
			out.slot, out.pos = i, ac.ts.col(o.Column)
		}
	}
	return out
}

func (p *prepared) preds(in []sqlast.Pred) []pred {
	out := make([]pred, len(in))
	for i, q := range in {
		out[i] = pred{op: q.Op, l: p.operand(q.L), r: p.operand(q.R), isNull: q.IsNull}
	}
	return out
}

func (p *prepared) compile(c sqlast.Cond) cond {
	out := cond{preds: p.preds(c.Preds)}
	for _, g := range c.Ors {
		var group [][]pred
		for _, dj := range g.Disjuncts {
			group = append(group, p.preds(dj))
		}
		out.ors = append(out.ors, group)
	}
	return out
}

// planScan orders the FROM/JOIN tables into a join order and chooses each
// one's access path. It prefers the alias/index pair with the longest
// bound equality prefix — the greedy equivalent of the paper's
// index-usage-graph topological sort, where an index is usable once its
// input data (parameters or earlier tables' columns) is available.
func planScan(from []access, preds []sqlast.Pred) []access {
	bound := map[string]bool{}
	var plan []access
	remaining := append([]access(nil), from...)
	for len(remaining) > 0 {
		bestI, bestScore := -1, -1
		var bestAcc access
		for i, a := range remaining {
			for _, ix := range a.ts.indexes {
				eq := eqPrefix(a.alias, ix, preds, bound)
				if len(eq) == 0 {
					continue
				}
				score := len(eq) * 2
				if ix.Unique && len(eq) == len(ix.Columns) {
					score++ // a unique point access wins ties
				}
				if score > bestScore {
					bestI, bestScore = i, score
					bestAcc = access{alias: a.alias, ts: a.ts, ix: ix, eq: eq}
				}
			}
		}
		if bestI == -1 {
			// No index applies: full-scan the first remaining alias.
			bestI, bestAcc = 0, remaining[0]
		}
		plan = append(plan, bestAcc)
		bound[bestAcc.alias] = true
		remaining = append(remaining[:bestI], remaining[bestI+1:]...)
	}
	return plan
}

// eqPrefix finds equality bindings for the longest prefix of ix.Columns
// from preds whose other side is a parameter, constant, or a column of an
// already-bound alias.
func eqPrefix(alias string, ix *index, preds []sqlast.Pred, bound map[string]bool) []operand {
	var out []operand
	for i, col := range ix.Columns {
		for _, p := range preds {
			if p.IsNull || p.Op != smt.EQ {
				continue
			}
			if isAliasCol(p.L, alias, col) && operandAvailable(p.R, bound) {
				out = append(out, operand{Operand: p.R})
				break
			}
			if isAliasCol(p.R, alias, col) && operandAvailable(p.L, bound) {
				out = append(out, operand{Operand: p.L})
				break
			}
		}
		if len(out) == i {
			break // no binding for this column: the prefix ends before it
		}
	}
	return out
}

func isAliasCol(o sqlast.Operand, alias, col string) bool {
	return o.Kind == sqlast.Col && o.Table == alias && o.Column == col
}

func operandAvailable(o sqlast.Operand, bound map[string]bool) bool {
	if o.Kind == sqlast.Col {
		return bound[o.Table]
	}
	return true
}

// AccessPath describes how one table alias is accessed: one step of the
// engine's EXPLAIN, recorded per statement as the trace's PlanStep (the
// paper's Sec. V-D suggestion to replace "assume all possible join orders"
// with the database's concrete execution plan).
type AccessPath struct {
	Alias string `json:"alias"`
	Table string `json:"table"`
	// Index is the traversed index name, or "" for a full table scan.
	Index string `json:"index,omitempty"`
	// EqColumns is the bound equality prefix of the index.
	EqColumns []string `json:"-"`
}

// Explain returns the access path per alias for the statement, in join
// order (for an INSERT, the indexes it writes), from the prepared form
// execution follows; index selection depends only on which predicates
// bind index prefixes. The slice is shared; callers must not modify it.
func (db *DB) Explain(st sqlast.Stmt) []AccessPath {
	p, err := db.prepare(st)
	if err != nil {
		return nil
	}
	return p.paths
}
