package lockmodel

import (
	"context"
	"testing"

	"weseer/internal/schema"
	"weseer/internal/smt"
	"weseer/internal/solver"
	"weseer/internal/trace"
)

// keyedSchema is one keyed table with a non-unique secondary index.
func keyedSchema() *schema.Schema {
	s := schema.New()
	s.AddTable("T").
		Col("ID", schema.Int).Col("V", schema.Int).Col("K", schema.Int).
		PrimaryKey("ID").
		Index("idx_t_k", "K")
	return s
}

// keyedRead is a SELECT over T that returned one row (a range lock's
// empty read when empty is set).
func keyedRead(sql string, params []smt.Expr, empty bool) *trace.Stmt {
	res := &trace.Result{Cols: []string{"t.ID", "t.V", "t.K"}, Empty: empty}
	if !empty {
		res.Sym = [][]smt.Var{{
			{Name: "A1.res0.row0.t.ID", S: smt.SortInt},
			{Name: "A1.res0.row0.t.V", S: smt.SortInt},
			{Name: "A1.res0.row0.t.K", S: smt.SortInt},
		}}
	}
	return mkStmt(sql, params, res)
}

// keyedUpdate is a point UPDATE of T's row key.
func keyedUpdate(key smt.Expr) *trace.Stmt {
	return mkStmt(`UPDATE T SET V = ? WHERE ID = ?`, []smt.Expr{smt.NewVar("A2.v", smt.SortInt), key}, nil)
}

// edgeSat reports whether the C-edge from writer w to reader r on T can
// hold: its conflict condition is satisfiable.
func edgeSat(t *testing.T, w, r *trace.Stmt) bool {
	t.Helper()
	cond := GenConflictCond(w, r, keyedSchema(), "T", "r1.", NewNamer("e1."), false)
	switch res := new(solver.Solver).Solve(context.Background(), cond); res.Status {
	case solver.SAT:
		return true
	case solver.UNSAT:
		return false
	default:
		t.Fatalf("conflict condition %s: %s", cond, res.Status)
		return false
	}
}

// Two point statements pinned to different primary keys lock provably
// disjoint rows: the conflict condition refutes the C-edge, though the
// index-level test (PotentialConflict) cannot tell them apart.
func TestEdgeRefutedByRigidKeys(t *testing.T) {
	w := keyedUpdate(smt.Int(1))
	r := keyedRead(`SELECT * FROM T t WHERE t.ID = ?`, []smt.Expr{smt.Int(2)}, false)
	if !PotentialConflict(w, r, keyedSchema(), false) {
		t.Fatal("point rows on one primary index must pass the index-level test")
	}
	if edgeSat(t, w, r) {
		t.Fatal("disjoint rigid point rows must not form a C-edge")
	}
	// Same key: collision.
	r1 := keyedRead(`SELECT * FROM T t WHERE t.ID = ?`, []smt.Expr{smt.Int(1)}, false)
	if !edgeSat(t, w, r1) {
		t.Fatal("same rigid key must collide")
	}
	// Free parameter: any row is reachable.
	r2 := keyedRead(`SELECT * FROM T t WHERE t.ID = ?`, []smt.Expr{smt.NewVar("A1.k", smt.SortInt)}, false)
	if !edgeSat(t, w, r2) {
		t.Fatal("a free parameter must stay conservative")
	}
	// Inline constants pin keys just like rigid parameters.
	w3 := mkStmt(`UPDATE T SET V = ? WHERE ID = 3`, []smt.Expr{smt.NewVar("A2.v", smt.SortInt)}, nil)
	r3 := keyedRead(`SELECT * FROM T t WHERE t.ID = 4`, nil, false)
	if edgeSat(t, w3, r3) {
		t.Fatal("disjoint inline-constant rows must not form a C-edge")
	}
	// Two writers of different rigid rows never wait on each other.
	if edgeSat(t, w, mkStmt(`UPDATE T SET V = ? WHERE ID = ?`, []smt.Expr{smt.NewVar("A1.v", smt.SortInt), smt.Int(2)}, nil)) {
		t.Fatal("updates of disjoint rigid rows must not form a C-edge")
	}
}

// An empty read holds a range (next-key) lock, not a row lock: key
// disequality must NOT refute it — the write can land inside the range.
func TestEdgeKeepsRangeLocks(t *testing.T) {
	w := keyedUpdate(smt.Int(1))
	r := keyedRead(`SELECT * FROM T t WHERE t.ID = ?`, []smt.Expr{smt.Int(2)}, true)
	if !edgeSat(t, w, r) {
		t.Fatal("range locks are never refuted by point-key disequality")
	}
	ins := mkStmt(`INSERT INTO T (ID, V, K) VALUES (?, ?, ?)`, []smt.Expr{smt.Int(1), smt.Int(0), smt.Int(0)}, nil)
	if !edgeSat(t, ins, r) {
		t.Fatal("an insert of another rigid key can land in an empty read's range")
	}
	// Secondary (non-unique) index scans also stay: the row they lock
	// through idx_t_k may be the one the writer updates.
	r2 := keyedRead(`SELECT * FROM T t WHERE t.K = ?`, []smt.Expr{smt.Int(2)}, false)
	if !edgeSat(t, w, r2) {
		t.Fatal("non-unique index access must stay conservative")
	}
}
