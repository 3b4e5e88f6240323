package core

import (
	"context"
	"fmt"
	"testing"

	"weseer/internal/minidb"
	"weseer/internal/schema"
	"weseer/internal/smt"
	"weseer/internal/trace"
)

// keyedSchema is one keyed table.
func keyedSchema() *schema.Schema {
	s := schema.New()
	s.AddTable("T").
		Col("ID", schema.Int).Col("V", schema.Int).
		PrimaryKey("ID")
	return s
}

// keyedOp is one point statement on T: a SELECT returning the row, or
// an UPDATE of it. A constant key pins the row in every instance of the
// API; a variable key is an input, free per instance.
type keyedOp struct {
	write bool
	key   smt.Expr
}

func readRow(key smt.Expr) keyedOp  { return keyedOp{key: key} }
func writeRow(key smt.Expr) keyedOp { return keyedOp{write: true, key: key} }

// keyedTrace is one API running ops as one transaction over T.
func keyedTrace(api string, ops ...keyedOp) *trace.Trace {
	tr := &trace.Trace{API: api}
	txn := &trace.Txn{ID: 1, Committed: true}
	for seq, op := range ops {
		concrete := int64(seq + 1)
		if c, ok := op.key.(smt.IntConst); ok {
			concrete = c.V
		}
		var st *trace.Stmt
		if op.write {
			st = mkStmt(seq, `UPDATE T SET V = ? WHERE ID = ?`,
				[]smt.Expr{smt.NewVar(fmt.Sprintf("v%d", seq), smt.SortInt), op.key}, nil)
		} else {
			st = mkStmt(seq, `SELECT * FROM T t WHERE t.ID = ?`, []smt.Expr{op.key},
				&trace.Result{Cols: []string{"t.ID", "t.V"}, Sym: [][]smt.Var{{
					{Name: fmt.Sprintf("res%d.row0.t.ID", seq), S: smt.SortInt},
					{Name: fmt.Sprintf("res%d.row0.t.V", seq), S: smt.SortInt},
				}}})
		}
		st.Params[len(st.Params)-1].Concrete = minidb.I64(concrete)
		if v, ok := op.key.(smt.Var); ok && !hasInput(tr, v.Name) {
			tr.Inputs = append(tr.Inputs, trace.Input{Name: v.Name, Sort: smt.SortInt, Concrete: smt.IntValue(concrete)})
		}
		txn.Stmts = append(txn.Stmts, st)
	}
	tr.Txns = []*trace.Txn{txn}
	return tr
}

func hasInput(tr *trace.Trace, name string) bool {
	for _, in := range tr.Inputs {
		if in.Name == name {
			return true
		}
	}
	return false
}

// pairsOf is the report's deadlocks as their API pairs.
func pairsOf(res *Result) map[[2]string]bool {
	out := map[[2]string]bool{}
	for _, d := range res.Deadlocks {
		out[[2]string{d.APIs[0], d.APIs[1]}] = true
	}
	return out
}

func analyzeKeyed(t *testing.T, traces ...*trace.Trace) *Result {
	t.Helper()
	res, err := NewAnalyzer(keyedSchema()).AnalyzeContext(context.Background(), traces)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCyclePossible: two point UPDATEs in one transaction are the
// classic hold-and-wait cycle across two APIs when the keys are free.
// When each API pins both its rows to its own constant, every C-edge
// between them joins provably different rows: phase 2 still finds the
// coarse cycle and the solver refutes it.
func TestCyclePossible(t *testing.T) {
	a, b := smt.NewVar("a", smt.SortInt), smt.NewVar("b", smt.SortInt)
	free := analyzeKeyed(t, keyedTrace("Move", writeRow(a), writeRow(b)), keyedTrace("Swap", writeRow(b), writeRow(a)))
	if !pairsOf(free)[[2]string{"Move", "Swap"}] {
		t.Fatalf("free-key cycle between Move and Swap not reported:\n%s", free.Render())
	}
	pinned := analyzeKeyed(t,
		keyedTrace("Pin1", writeRow(smt.Int(1)), writeRow(smt.Int(1))),
		keyedTrace("Pin2", writeRow(smt.Int(2)), writeRow(smt.Int(2))))
	if pairsOf(pinned)[[2]string{"Pin1", "Pin2"}] {
		t.Fatalf("rigidly disjoint cycle reported:\n%s", pinned.Render())
	}
	if pinned.Stats.CoarseCycles == 0 || pinned.Stats.SolverUNSAT == 0 {
		t.Errorf("want coarse cycles refuted by the solver: %+v", pinned.Stats)
	}
}

// TestPairDeadlockPossible: a transaction pair deadlocks only if each
// side can hold a lock while it waits for another. Reading then updating
// one free row (the lock upgrade) does; single-statement transactions
// hold nothing while they wait, so phase 2 finds no cycle; and two APIs
// whose rows are pinned apart never wait on each other, though each
// still deadlocks with itself on its own row.
func TestPairDeadlockPossible(t *testing.T) {
	k := smt.NewVar("k", smt.SortInt)
	up := analyzeKeyed(t, keyedTrace("Up", readRow(k), writeRow(k)))
	if !pairsOf(up)[[2]string{"Up", "Up"}] {
		t.Fatalf("upgrade pair not reported:\n%s", up.Render())
	}
	one := analyzeKeyed(t, keyedTrace("One", writeRow(k)), keyedTrace("Other", writeRow(smt.NewVar("j", smt.SortInt))))
	if len(one.Deadlocks) != 0 || one.Stats.CoarseCycles != 0 {
		t.Fatalf("single-statement transactions deadlocked (%d coarse cycles):\n%s", one.Stats.CoarseCycles, one.Render())
	}
	if one.Stats.PairsAfterPhase1 == 0 {
		t.Errorf("writers of one table must pass phase 1: %+v", one.Stats)
	}
	apart := analyzeKeyed(t,
		keyedTrace("A", readRow(smt.Int(1)), writeRow(smt.Int(1))),
		keyedTrace("B", readRow(smt.Int(2)), writeRow(smt.Int(2))))
	got := pairsOf(apart)
	if got[[2]string{"A", "B"}] {
		t.Fatalf("transactions on disjoint rigid rows reported as deadlocking:\n%s", apart.Render())
	}
	if !got[[2]string{"A", "A"}] || !got[[2]string{"B", "B"}] {
		t.Errorf("each API's upgrade on its pinned row must deadlock with itself, got %v", got)
	}
}
