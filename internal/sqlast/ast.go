// Package sqlast defines the SQL statement ASTs WeSEER supports (Fig. 6 of
// the paper): SELECT with JOINs, UPDATE, INSERT, and DELETE, plus the
// MySQL-style UPSERT used by deadlock fix f2. Query conditions follow the
// Fig. 7 grammar: conjunctions of index-related predicates (Icond) and
// disjunctive conditions unrelated to indexes (Ncond).
//
// Statements are templates: parameters appear as '?' placeholders with
// ordinal positions, matching how ORMs prepare statements through JDBC.
package sqlast

import (
	"fmt"
	"math/big"
	"sort"

	"weseer/internal/smt"
)

// OperandKind classifies a predicate or value operand.
type OperandKind uint8

// Operand kinds. Param is a '?' placeholder; Col is an alias.column
// reference; the rest are literals.
const (
	Param OperandKind = iota
	Col
	ConstInt
	ConstReal
	ConstStr
	Null
)

// Operand is a variable (SQL parameter or table-alias/column pair) or a
// literal, per the Fig. 7 grammar's var and constant forms.
type Operand struct {
	Kind   OperandKind
	Ord    int    // Param: 0-based ordinal
	Table  string // Col: table alias (or table name when unaliased)
	Column string // Col
	Int    int64
	Real   *big.Rat
	Str    string
}

// P returns a parameter operand with the given ordinal.
func P(ord int) Operand { return Operand{Kind: Param, Ord: ord} }

// C returns a column reference operand.
func C(alias, column string) Operand { return Operand{Kind: Col, Table: alias, Column: column} }

// VInt returns an integer literal operand.
func VInt(v int64) Operand { return Operand{Kind: ConstInt, Int: v} }

// VStr returns a string literal operand.
func VStr(s string) Operand { return Operand{Kind: ConstStr, Str: s} }

// VNull returns the NULL literal.
func VNull() Operand { return Operand{Kind: Null} }

func (o Operand) String() string {
	switch o.Kind {
	case Param:
		return "?"
	case Col:
		if o.Table == "" {
			return o.Column
		}
		return o.Table + "." + o.Column
	case ConstInt:
		return fmt.Sprintf("%d", o.Int)
	case ConstReal:
		return realString(o.Real)
	case ConstStr:
		return fmt.Sprintf("'%s'", o.Str)
	case Null:
		return "NULL"
	}
	return "<bad operand>"
}

// realString renders a rational as the decimal literal the tokenizer
// accepts, exactly when the denominator is 2^a·5^b — always the case
// for values Parse itself produced. Other rationals (hand-built
// operands) are rounded to 12 fractional digits.
func realString(r *big.Rat) string {
	if r.IsInt() {
		if r.Num().IsInt64() {
			return r.Num().String()
		}
		// Keep a decimal point: bare integers beyond int64 would be
		// rejected on reparse, a ConstReal round-trips.
		return r.Num().String() + ".0"
	}
	den := new(big.Int).Set(r.Denom())
	two, five := big.NewInt(2), big.NewInt(5)
	digits := 0
	for _, f := range []*big.Int{two, five} {
		n := 0
		for new(big.Int).Mod(den, f).Sign() == 0 {
			den.Div(den, f)
			n++
		}
		if n > digits {
			digits = n
		}
	}
	if den.Cmp(big.NewInt(1)) != 0 {
		return r.FloatString(12)
	}
	return r.FloatString(digits)
}

// Equal reports structural operand equality.
func (o Operand) Equal(p Operand) bool {
	if o.Kind != p.Kind {
		return false
	}
	switch o.Kind {
	case Param:
		return o.Ord == p.Ord
	case Col:
		return o.Table == p.Table && o.Column == p.Column
	case ConstInt:
		return o.Int == p.Int
	case ConstReal:
		return o.Real.Cmp(p.Real) == 0
	case ConstStr:
		return o.Str == p.Str
	case Null:
		return true
	}
	return false
}

// Pred is an atomic predicate: L op R, or "L IS NULL" when IsNull is set
// (in which case Op and R are ignored).
type Pred struct {
	Op     smt.CmpOp
	L, R   Operand
	IsNull bool
}

func (p Pred) String() string {
	if p.IsNull {
		return p.L.String() + " IS NULL"
	}
	return fmt.Sprintf("%s %s %s", p.L, p.Op, p.R)
}

// Cond is a query condition: the conjunction of simple predicates (Preds)
// and disjunctive groups (Ors). This mirrors Qcond ::= Icond ∧ Ncond —
// simple predicates can relate to indexes, disjunctions cannot.
type Cond struct {
	Preds []Pred
	// Ors is a conjunction of disjunctions; each OrGroup holds the
	// disjuncts, and each disjunct is a conjunction of predicates.
	Ors []OrGroup
}

// OrGroup is a disjunction of predicate conjunctions.
type OrGroup struct {
	Disjuncts [][]Pred
}

// Empty reports whether the condition has no predicates at all.
func (c Cond) Empty() bool { return len(c.Preds) == 0 && len(c.Ors) == 0 }

// StmtKind discriminates statement types.
type StmtKind uint8

// Statement kinds.
const (
	KindSelect StmtKind = iota
	KindUpdate
	KindInsert
	KindDelete
	KindUpsert
)

func (k StmtKind) String() string {
	switch k {
	case KindSelect:
		return "SELECT"
	case KindUpdate:
		return "UPDATE"
	case KindInsert:
		return "INSERT"
	case KindDelete:
		return "DELETE"
	case KindUpsert:
		return "UPSERT"
	}
	return fmt.Sprintf("StmtKind(%d)", uint8(k))
}

// Stmt is a SQL statement template.
type Stmt interface {
	Kind() StmtKind
	String() string
	// NumParams returns the number of '?' placeholders.
	NumParams() int
	// Tables returns every table the statement touches (not aliases).
	Tables() []string
	// WriteTable returns the written table, or "" for SELECT.
	WriteTable() string
}

// TableRef names a table with an optional alias; Alias() falls back to the
// table name, as SQL scoping does.
type TableRef struct {
	Table string
	As    string
}

// Alias returns the effective alias.
func (r TableRef) Alias() string {
	if r.As != "" {
		return r.As
	}
	return r.Table
}

// Join is one JOIN clause: JOIN Table alias ON <conjunction>.
type Join struct {
	Ref TableRef
	On  []Pred
}

// ColRef names an output column of a SELECT.
type ColRef struct {
	Table  string // alias
	Column string
}

func (c ColRef) String() string {
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}

// Select is SELECT cols FROM t [JOIN ...]* WHERE cond. An empty Cols list
// means '*' (all columns of all referenced tables).
type Select struct {
	Cols  []ColRef
	From  TableRef
	Joins []Join
	Where Cond
}

// Kind implements Stmt.
func (*Select) Kind() StmtKind { return KindSelect }

// WriteTable implements Stmt: SELECTs write nothing.
func (*Select) WriteTable() string { return "" }

// Tables implements Stmt.
func (s *Select) Tables() []string {
	out := []string{s.From.Table}
	for _, j := range s.Joins {
		out = append(out, j.Ref.Table)
	}
	return out
}

// AliasMap returns alias → table name for every referenced table.
func (s *Select) AliasMap() map[string]string {
	m := map[string]string{s.From.Alias(): s.From.Table}
	for _, j := range s.Joins {
		m[j.Ref.Alias()] = j.Ref.Table
	}
	return m
}

// QueryCond returns the conjunction of Join-ON and WHERE predicates — the
// "query conditions" of Sec. V-C1.
func (s *Select) QueryCond() Cond {
	var c Cond
	for _, j := range s.Joins {
		c.Preds = append(c.Preds, j.On...)
	}
	c.Preds = append(c.Preds, s.Where.Preds...)
	c.Ors = append(c.Ors, s.Where.Ors...)
	return c
}

// Assign is one SET column = value clause.
type Assign struct {
	Column string
	Value  Operand
}

// Update is UPDATE tab SET ... WHERE cond. Fig. 6 allows no alias.
type Update struct {
	Table string
	Set   []Assign
	Where Cond
}

// Kind implements Stmt.
func (*Update) Kind() StmtKind { return KindUpdate }

// WriteTable implements Stmt.
func (u *Update) WriteTable() string { return u.Table }

// Tables implements Stmt.
func (u *Update) Tables() []string { return []string{u.Table} }

// QueryCond returns the WHERE condition.
func (u *Update) QueryCond() Cond { return u.Where }

// WrittenColumns returns the SET column names.
func (u *Update) WrittenColumns() []string {
	out := make([]string, len(u.Set))
	for i, a := range u.Set {
		out[i] = a.Column
	}
	return out
}

// Insert is INSERT INTO tab (cols) VALUES (vals).
type Insert struct {
	Table   string
	Columns []string
	Values  []Operand
}

// Kind implements Stmt.
func (*Insert) Kind() StmtKind { return KindInsert }

// WriteTable implements Stmt.
func (i *Insert) WriteTable() string { return i.Table }

// Tables implements Stmt.
func (i *Insert) Tables() []string { return []string{i.Table} }

// QueryCond returns the equations on the inserted row, one
// "table.column = value" per inserted column in column order. The paper
// takes them on the primary key; every inserted column subsumes the key.
func (i *Insert) QueryCond() Cond {
	preds := make([]Pred, len(i.Columns))
	for k, col := range i.Columns {
		preds[k] = Pred{Op: smt.EQ, L: C(i.Table, col), R: i.Values[k]}
	}
	return Cond{Preds: preds}
}

// ValueOf returns the inserted value operand for a column, or false.
func (i *Insert) ValueOf(col string) (Operand, bool) {
	for k, c := range i.Columns {
		if c == col {
			return i.Values[k], true
		}
	}
	return Operand{}, false
}

// Upsert is MySQL's INSERT ... ON DUPLICATE KEY UPDATE, used by fix f2 to
// replace a deadlock-prone check-then-insert transaction with one
// semantically equivalent statement.
type Upsert struct {
	Insert
	OnDup []Assign
}

// Kind implements Stmt.
func (*Upsert) Kind() StmtKind { return KindUpsert }

// Delete is DELETE FROM tab WHERE cond.
type Delete struct {
	Table string
	Where Cond
}

// Kind implements Stmt.
func (*Delete) Kind() StmtKind { return KindDelete }

// WriteTable implements Stmt.
func (d *Delete) WriteTable() string { return d.Table }

// Tables implements Stmt.
func (d *Delete) Tables() []string { return []string{d.Table} }

// QueryCond returns the WHERE condition.
func (d *Delete) QueryCond() Cond { return d.Where }

// NumParams implementations count '?' placeholders in order of appearance.

// NumParams implements Stmt.
func (s *Select) NumParams() int { return countCondParams(s.QueryCond()) }

// NumParams implements Stmt.
func (u *Update) NumParams() int {
	n := 0
	for _, a := range u.Set {
		n += countOperandParams(a.Value)
	}
	return n + countCondParams(u.Where)
}

// NumParams implements Stmt.
func (i *Insert) NumParams() int {
	n := 0
	for _, v := range i.Values {
		n += countOperandParams(v)
	}
	return n
}

// NumParams implements Stmt.
func (u *Upsert) NumParams() int {
	n := u.Insert.NumParams()
	for _, a := range u.OnDup {
		n += countOperandParams(a.Value)
	}
	return n
}

// NumParams implements Stmt.
func (d *Delete) NumParams() int { return countCondParams(d.Where) }

func countOperandParams(o Operand) int {
	if o.Kind == Param {
		return 1
	}
	return 0
}

func countPredParams(p Pred) int {
	n := countOperandParams(p.L)
	if !p.IsNull {
		n += countOperandParams(p.R)
	}
	return n
}

func countCondParams(c Cond) int {
	n := 0
	for _, p := range c.Preds {
		n += countPredParams(p)
	}
	for _, g := range c.Ors {
		for _, dj := range g.Disjuncts {
			for _, p := range dj {
				n += countPredParams(p)
			}
		}
	}
	return n
}

// AliasMapOf returns alias→table for any statement kind. Unaliased write
// statements map the table name to itself.
func AliasMapOf(st Stmt) map[string]string {
	switch t := st.(type) {
	case *Select:
		return t.AliasMap()
	case *Update:
		return map[string]string{t.Table: t.Table}
	case *Insert:
		return map[string]string{t.Table: t.Table}
	case *Upsert:
		return map[string]string{t.Table: t.Table}
	case *Delete:
		return map[string]string{t.Table: t.Table}
	}
	panic("sqlast: unknown statement type")
}

// AliasesOf returns the statement's aliases of table, sorted.
func AliasesOf(st Stmt, table string) []string {
	var out []string
	for alias, t := range AliasMapOf(st) {
		if t == table {
			out = append(out, alias)
		}
	}
	sort.Strings(out)
	return out
}

// QueryCondOf returns the query condition of any statement; for INSERT and
// UPSERT, the equations on the inserted row (Insert.QueryCond).
func QueryCondOf(st Stmt) Cond {
	switch t := st.(type) {
	case *Select:
		return t.QueryCond()
	case *Update:
		return t.Where
	case *Delete:
		return t.Where
	case *Insert:
		return t.QueryCond()
	case *Upsert:
		return t.Insert.QueryCond()
	}
	panic("sqlast: unknown statement type")
}
