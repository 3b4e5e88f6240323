// Package trace defines the runtime traces WeSEER's trace collector
// produces and its deadlock analyzer consumes (Fig. 3 of the paper). A
// trace captures one API unit test's execution: the transactions it ran,
// each transaction's SQL statement templates with symbolic parameters and
// symbolic result aliases, the path conditions that enable the execution,
// and — for deadlock reporting — the code locations that triggered each
// statement (which, due to ORM write-behind caching, are generally not
// the locations that sent them).
package trace

import (
	"fmt"
	"strings"

	"weseer/internal/minidb"
	"weseer/internal/smt"
	"weseer/internal/sqlast"
)

// Frame is one stack frame of application code.
type Frame struct {
	Func string `json:"func"`
	File string `json:"file"`
	Line int    `json:"line"`
}

func (f Frame) String() string {
	return fmt.Sprintf("%s (%s:%d)", f.Func, f.File, f.Line)
}

// CodeLoc is a captured stack trace, innermost frame first. Frames is
// shared and immutable: the collector hands every event captured at one
// call site the same slice — a statement sent where it was triggered has
// one slice for both — so a holder that wants different frames builds a
// new slice.
type CodeLoc struct {
	Frames []Frame `json:"frames,omitempty"`
}

// Top returns the innermost frame, or a zero Frame.
func (c CodeLoc) Top() Frame {
	if len(c.Frames) == 0 {
		return Frame{}
	}
	return c.Frames[0]
}

func (c CodeLoc) String() string {
	if len(c.Frames) == 0 {
		return "<unknown>"
	}
	parts := make([]string, len(c.Frames))
	for i, f := range c.Frames {
		parts[i] = f.String()
	}
	return strings.Join(parts, " <- ")
}

// Input is one symbolic API input and the concrete value it took.
type Input struct {
	Name     string
	Sort     smt.Sort
	Concrete smt.Value
}

// Param is one SQL parameter: its symbolic expression and the concrete
// value sent to the database during the concolic run.
type Param struct {
	Sym      smt.Expr
	Concrete minidb.Datum
}

// Result describes a SELECT's result set: symbolic aliases for every cell
// (the "res4.row0.p.ID" variables of Fig. 3) plus the concrete values.
type Result struct {
	// Cols are "alias.column" names.
	Cols []string
	// Sym[r][c] is the symbolic alias of row r, column c.
	Sym [][]smt.Var
	// Concrete[r][c] is the fetched value.
	Concrete [][]minidb.Datum
	// Empty reports a zero-row result — the case where range locks
	// protect an empty read set (Alg. 2).
	Empty bool
}

// PlanStep is one step of the database's concrete execution plan for a
// statement: which index (or full scan, Index == "") serves one table
// alias. Recording the plan implements the paper's first future-work
// item (Sec. V-D): querying the database for its execution plan removes
// the lock-modeling imprecision of assuming every possible index.
//
// It is the engine's own EXPLAIN row, so the statements of one template
// share the plan the database prepared once.
type PlanStep = minidb.AccessPath

// Stmt is one recorded SQL statement.
type Stmt struct {
	// Seq is the statement's 0-based position in the whole trace
	// (chronological send order, i.e. post-ORM-reordering).
	Seq int
	// TxnID identifies the enclosing transaction within the trace.
	TxnID int
	// SQL is the statement template text.
	SQL string
	// Parsed is the template AST (reconstructed from SQL on load).
	Parsed sqlast.Stmt
	// Params are the template's '?' values in order.
	Params []Param
	// Res is non-nil for SELECT statements.
	Res *Result
	// Plan is the database's concrete execution plan (EXPLAIN output),
	// when the collector recorded it.
	Plan []PlanStep
	// Trigger is the application code that caused this statement
	// (Sec. VI's ORM-aware mapping).
	Trigger CodeLoc
	// Sent is where the statement was physically submitted; for
	// write-behind statements this is the flush/commit site.
	Sent CodeLoc
}

// IsWrite reports whether the statement writes its table.
func (s *Stmt) IsWrite() bool { return s.Parsed.WriteTable() != "" }

// Deferred reports a write-behind statement: its sent site is known and
// is not its trigger site (an ORM flush sent it later, elsewhere).
func (s *Stmt) Deferred() bool {
	sent := s.Sent.Top()
	return sent.File != "" && sent != s.Trigger.Top()
}

// PathCond is one recorded path condition.
type PathCond struct {
	// AfterStmt is the number of statements already in the trace when
	// this condition was recorded; the fine-grained phase keeps only the
	// conditions recorded before a cycle's last involved statement.
	AfterStmt int
	Cond      smt.Expr
}

// Txn is one transaction instance inside a trace.
type Txn struct {
	ID        int
	Stmts     []*Stmt
	Committed bool
}

// Tables returns the set of tables the transaction touches and the subset
// it writes — the transaction-level phase's conflict signature.
func (t *Txn) Tables() (accessed, written map[string]bool) {
	accessed, written = map[string]bool{}, map[string]bool{}
	for _, s := range t.Stmts {
		for _, tab := range s.Parsed.Tables() {
			accessed[tab] = true
		}
		if w := s.Parsed.WriteTable(); w != "" {
			written[w] = true
		}
	}
	return accessed, written
}

// Stats captures collection-time counters, used by the Sec. IV pruning
// experiment (656K → 2.7K path conditions for Broadleaf's Ship API).
type Stats struct {
	// PathConds is the number of path conditions recorded in the trace.
	PathConds int `json:"path_conds"`
	// PrunedConds is the number of additional conditions that concrete-
	// only execution of driver/built-in/container functions avoided.
	PrunedConds int `json:"pruned_conds"`
	// Statements is the number of SQL statements recorded.
	Statements int `json:"statements"`
}

// Trace is one API unit test's collected execution.
type Trace struct {
	API       string
	Inputs    []Input
	Txns      []*Txn
	PathConds []PathCond
	Stats     Stats
}

// AllStmts returns every statement in send order.
func (tr *Trace) AllStmts() []*Stmt {
	var out []*Stmt
	for _, t := range tr.Txns {
		out = append(out, t.Stmts...)
	}
	sortStmts(out)
	return out
}

func sortStmts(ss []*Stmt) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j].Seq < ss[j-1].Seq; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}
