package staticlint

import (
	"fmt"

	"weseer/internal/smt"
	"weseer/internal/sqlast"
	"weseer/internal/trace"
)

// StmtShape is the static abstraction of one statement: its template,
// the parameter values that are statically fixed, and the write-behind
// metadata the hazard checks need.
type StmtShape struct {
	Stmt sqlast.Stmt
	// Rigid maps a '?' ordinal to the canonical encoding of its value
	// when the value is statically pinned — an smt literal in a trace,
	// or a constant argument at a lint-extracted call site. Parameters
	// absent from the map are free.
	Rigid map[int]string
	// Deferred marks a write-behind statement: modified at its trigger
	// site but sent at the commit flush (trace: Trigger ≠ Sent).
	Deferred bool
	// File/Line locate the trigger site when known.
	File string
	Line int
}

// TxnShape is the ordered statement-template list of one transaction —
// the unit Analyzer 1 reasons over, shared by the vet CLI (templates
// extracted from source) and CanonicalizeTraces (trace transactions).
type TxnShape struct {
	API   string
	Stmts []StmtShape
}

// ShapeFromTxn abstracts a recorded transaction: parameters whose
// symbolic shadow is a literal become rigid, and trace.Stmt.Deferred
// marks deferred writes.
func ShapeFromTxn(api string, txn *trace.Txn) TxnShape {
	sh := TxnShape{API: api}
	for _, st := range txn.Stmts {
		s := StmtShape{Stmt: st.Parsed}
		s.Deferred = st.Deferred()
		s.File = st.Trigger.Top().File
		s.Line = st.Trigger.Top().Line
		for ord, p := range st.Params {
			if k, ok := rigidOf(p.Sym); ok {
				if s.Rigid == nil {
					s.Rigid = map[int]string{}
				}
				s.Rigid[ord] = k
			}
		}
		sh.Stmts = append(sh.Stmts, s)
	}
	return sh
}

// rigidOf canonicalizes a symbolic parameter that is a literal — a value
// no input assignment can change, so template-level disequality on it is
// sound.
func rigidOf(e smt.Expr) (string, bool) {
	switch v := e.(type) {
	case smt.IntConst:
		return fmt.Sprintf("i:%d", v.V), true
	case smt.StrConst:
		return "s:" + v.S, true
	case smt.RealConst:
		return "r:" + v.V.RatString(), true
	case smt.BoolConst:
		return fmt.Sprintf("b:%v", v.B), true
	}
	return "", false
}

// rigidOperand canonicalizes a template operand when its value is
// statically pinned: an inline constant, or a parameter the shape holds
// a rigid value for.
func rigidOperand(o sqlast.Operand, sh StmtShape) (string, bool) {
	switch o.Kind {
	case sqlast.ConstInt:
		return fmt.Sprintf("i:%d", o.Int), true
	case sqlast.ConstStr:
		return "s:" + o.Str, true
	case sqlast.ConstReal:
		return "r:" + o.Real.RatString(), true
	case sqlast.Param:
		k, ok := sh.Rigid[o.Ord]
		return k, ok
	}
	return "", false
}
