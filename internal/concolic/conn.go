package concolic

import (
	"fmt"
	"strconv"
	"sync"

	"weseer/internal/minidb"
	"weseer/internal/smt"
	"weseer/internal/sqlast"
	"weseer/internal/trace"
)

// Conn intercepts the database driver (Sec. IV-A). The four kinds of
// driver functions the paper instruments map onto: Begin/Commit/Rollback
// (transaction life cycle), the statement cache (statement preparation),
// Exec (submission, which records templates and symbolic parameters), and
// Rows.Get (result retrieval, which hands out symbolic aliases for the
// fetched database state). Driver internals contribute no path conditions
// under pruning — their work is represented by LibraryCall accounting.
type Conn struct {
	e   *Engine
	db  *minidb.DB
	txn *minidb.Txn
	cur *trace.Txn
}

// NewConn wraps a database for one engine session.
func NewConn(e *Engine, db *minidb.DB) *Conn {
	return &Conn{e: e, db: db}
}

// DB returns the underlying database.
func (c *Conn) DB() *minidb.DB { return c.db }

// Engine returns the engine this connection records into.
func (c *Conn) Engine() *Engine { return c.e }

// Begin starts a database transaction and records its life cycle.
func (c *Conn) Begin() error {
	if c.txn != nil {
		return fmt.Errorf("concolic: transaction already open")
	}
	c.txn = c.db.Begin()
	if c.e.recording() {
		c.e.txnSeq++
		c.cur = &c.e.rec.txns.carve(1)[0]
		c.cur.ID, c.cur.Stmts = c.e.txnSeq, c.e.rec.stmtRefs.carve(4)[:0] // room for most transactions
		c.e.tr.Txns = append(c.e.tr.Txns, c.cur)
	}
	return nil
}

// Commit commits the open transaction.
func (c *Conn) Commit() error {
	if c.txn == nil {
		return fmt.Errorf("concolic: no open transaction")
	}
	err := c.txn.Commit()
	if c.cur != nil {
		c.cur.Committed = err == nil
		c.cur = nil
	}
	c.txn = nil
	return err
}

// Rollback aborts the open transaction.
func (c *Conn) Rollback() error {
	if c.txn == nil {
		return fmt.Errorf("concolic: no open transaction")
	}
	err := c.txn.Rollback()
	c.cur = nil
	c.txn = nil
	return err
}

// Prepared is one parsed statement template. Prepared statements are
// shared process-wide and must not be modified.
type Prepared struct {
	Stmt sqlast.Stmt
}

// stmtCache memoizes template parsing — the "statement preparation"
// driver functions of Sec. IV-A. Shared across connections.
var stmtCache sync.Map // sql string → *Prepared

// Prepare parses a statement template, or returns the cached parse.
func Prepare(sql string) (*Prepared, error) {
	if p, ok := stmtCache.Load(sql); ok {
		return p.(*Prepared), nil
	}
	st, err := sqlast.Parse(sql)
	if err != nil {
		return nil, err
	}
	p, _ := stmtCache.LoadOrStore(sql, &Prepared{Stmt: st})
	return p.(*Prepared), nil
}

// Rows is a fetched result set whose cells carry symbolic aliases.
type Rows struct {
	Cols []string
	// Cells holds the rows one after another, len(Cols) cells each.
	Cells []Value
}

// Empty reports a zero-row result.
func (r *Rows) Empty() bool { return len(r.Cells) == 0 }

// Len returns the number of rows.
func (r *Rows) Len() int { return len(r.Cells) / len(r.Cols) }

// Row returns the cells of one row.
func (r *Rows) Row(i int) []Value {
	w := len(r.Cols)
	return r.Cells[i*w : (i+1)*w : (i+1)*w]
}

// Exec submits one statement template with concolic parameter values.
// trigger is the application code responsible for the statement per the
// Sec. VI ORM-aware mapping; sent is the flush site of a write-behind
// statement, zero for one sent where it was triggered, and is recorded as
// given. The ORM walks the stack once per operation and passes both, so
// Exec walks none: only a zero trigger makes it capture its own call site.
// Outside an open transaction the statement runs in auto-commit mode
// (its own single-statement transaction), as JDBC connections do.
func (c *Conn) Exec(sql string, params []Value, trigger, sent trace.CodeLoc) (*Rows, error) {
	if c.txn == nil {
		if err := c.Begin(); err != nil {
			return nil, err
		}
		rows, err := c.Exec(sql, params, trigger, sent)
		if err != nil {
			c.Rollback()
			return nil, err
		}
		if err := c.Commit(); err != nil {
			return nil, err
		}
		return rows, nil
	}
	prep, err := Prepare(sql)
	if err != nil {
		return nil, err
	}
	st := prep.Stmt
	datums := c.e.rec.args[:0]
	for _, p := range params {
		datums = append(datums, datumOf(p))
	}
	c.e.rec.args = datums
	rs, err := c.txn.Exec(c.e.rec.fetched[:0], st, datums)
	if err != nil {
		return nil, err
	}
	cells := rs.Cells
	nrows := 0
	if w := len(rs.Cols); w > 0 {
		nrows = len(cells) / w
	}
	// Driver internals — statement preparation, wire protocol, result
	// parsing — are ignored for concolic execution (Sec. IV-A); their
	// avoided branch count scales with statement and result size.
	c.e.AccountLibrary("driver.exec", 420+len(sql)*3+nrows*160)

	var rows *Rows
	seq, a := c.e.stmtSeq, &c.e.rec
	if rs.Cols != nil {
		a.fetched = cells
		rows = &a.rows.carve(1)[0]
		rows.Cols, rows.Cells = rs.Cols, a.cells.carve(len(cells))
		for i, d := range cells {
			v := &rows.Cells[i]
			if *v = valueOf(d); c.e.concolic() && !d.Null {
				v.S = a.alias(seq, i/len(rs.Cols), rs.Cols[i%len(rs.Cols)], v.C.S)
			}
		}
	}

	if c.e.recording() && c.cur != nil {
		if len(trigger.Frames) == 0 {
			trigger = Here(2)
		}
		// Plan records the engine's concrete execution plan (Sec. V-D future
		// work): the analyzer can then model locks on exactly the indexes
		// execution traverses. It is the database's slice for the template,
		// shared by every statement recorded from it.
		rec := &a.stmts.carve(1)[0]
		*rec = trace.Stmt{
			Seq:     seq,
			SQL:     sql,
			Parsed:  st,
			Plan:    c.db.Explain(st),
			Trigger: trigger,
			Sent:    sent,
			Params:  a.params.carve(len(params)),
		}
		for i, p := range params {
			rec.Params[i].Concrete = datums[i]
			if c.e.concolic() {
				rec.Params[i].Sym = p.Sym()
			}
		}
		if rows != nil {
			res := &a.results.carve(1)[0]
			res.Cols, res.Empty, res.Sym = rows.Cols, rows.Empty(), a.aliasRows.carve(rows.Len())
			syms := a.aliases.carve(len(rows.Cells)) // a NULL cell keeps the zero Var: no alias
			for ci, v := range rows.Cells {
				if sv, ok := v.S.(smt.Var); ok {
					syms[ci] = sv
				}
			}
			w := len(rows.Cols)
			for ri := range res.Sym {
				res.Sym[ri] = syms[ri*w : (ri+1)*w : (ri+1)*w]
			}
			rec.Res = res
		}
		c.cur.Stmts = append(c.cur.Stmts, rec)
		c.e.tr.Stats.Statements++
		c.e.stmtSeq++
	} else {
		c.e.stmtSeq++
	}
	return rows, nil
}

// alias returns the symbolic alias of a fetched cell of sort so, column
// col of row ri of statement seq's result, e.g. "res4.row0.p.ID" (Fig. 3).
// Each (name, sort) is one expression per engine: every trace numbers its
// statements from 0, so most aliases recur.
func (a *records) alias(seq, ri int, col string, so smt.Sort) smt.Expr {
	k := append(append(aliasPrefix(a.aliasKey[:0], seq, ri), col...), byte(so))
	a.aliasKey = k
	v, ok := a.aliasVars[string(k)]
	if !ok {
		name := string(k)
		v = smt.NewVar(name[:len(name)-1], so)
		if a.aliasVars == nil {
			a.aliasVars = map[string]smt.Expr{}
		}
		a.aliasVars[name] = v
	}
	return v
}

// aliasPrefix appends what the aliases of row ri of statement seq's
// result start with, "res4.row0.", to dst.
func aliasPrefix(dst []byte, seq, ri int) []byte {
	dst = strconv.AppendInt(append(dst, "res"...), int64(seq), 10)
	return append(strconv.AppendInt(append(dst, ".row"...), int64(ri), 10), '.')
}

// datumOf converts a concolic value to a database datum.
func datumOf(v Value) minidb.Datum {
	if v.Null {
		switch v.C.S {
		case smt.SortReal:
			return minidb.NullDatum(minidb.KReal)
		case smt.SortString:
			return minidb.NullDatum(minidb.KStr)
		default:
			return minidb.NullDatum(minidb.KInt)
		}
	}
	switch v.C.S {
	case smt.SortInt:
		return minidb.I64(v.C.I)
	case smt.SortReal:
		return minidb.Real(v.C.R)
	case smt.SortString:
		return minidb.Str(v.C.Str)
	}
	panic(fmt.Sprintf("concolic: cannot convert %s to datum", v))
}

// valueOf converts a database datum to a concolic value. A Real shares the
// datum's number: neither side ever changes one in place.
func valueOf(d minidb.Datum) Value {
	if d.Null {
		switch d.Kind {
		case minidb.KReal:
			return NullValue(smt.SortReal)
		case minidb.KStr:
			return NullValue(smt.SortString)
		default:
			return NullValue(smt.SortInt)
		}
	}
	switch d.Kind {
	case minidb.KInt:
		return Int(d.I)
	case minidb.KReal:
		return Value{C: smt.Value{S: smt.SortReal, R: d.R}}
	case minidb.KStr:
		return Str(d.S)
	}
	panic("concolic: bad datum kind")
}

// records are the arenas an engine carves what it records from, so that a
// statement pays per chunk, not per record. An engine spans one collection
// (appkit.Collect); no arena is process-wide, as collectors run concurrently.
type records struct {
	traces    arena[trace.Trace]
	txns      arena[trace.Txn]
	stmtRefs  arena[*trace.Stmt]
	stmts     arena[trace.Stmt]
	params    arena[trace.Param]
	results   arena[trace.Result]
	aliasRows arena[[]smt.Var]
	aliases   arena[smt.Var]
	inputs    arena[trace.Input]
	pathConds arena[trace.PathCond]
	txnRefs   arena[*trace.Txn]
	rows      arena[Rows]
	cells     arena[Value]

	// Scratch: a trace grows its inputs, transactions and path conditions
	// here during its test and keeps exact copies; minidb copies the
	// parameters it keeps, and a result's cells become Values at once.
	inputBuf []trace.Input
	txnBuf   []*trace.Txn
	pcBuf    []trace.PathCond
	args     []minidb.Datum
	fetched  []minidb.Datum

	// aliasVars holds the fetched cells' aliases by name and sort, the
	// key built in aliasKey (records.alias).
	aliasVars map[string]smt.Expr
	aliasKey  []byte
}

// arena carves slices from chunks of 128 elements or more. A chunk is
// never reused: it lives as long as anything carved from it.
type arena[T any] struct{ free []T }

// carve returns n zero elements, nil for none, with no capacity beyond
// them: an append by the holder copies instead of writing into the chunk.
func (a *arena[T]) carve(n int) []T {
	if n == 0 {
		return nil
	}
	if n > len(a.free) {
		a.free = make([]T, max(n, 128))
	}
	s := a.free[:n:n]
	a.free = a.free[n:]
	return s
}

// keep returns a copy of s carved from a, and s emptied for reuse.
func keep[T any](a *arena[T], s []T) (kept, scratch []T) {
	return append(a.carve(len(s))[:0], s...), s[:0]
}
