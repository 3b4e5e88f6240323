package lockmodel

import (
	"testing"

	"weseer/internal/schema"
	"weseer/internal/smt"
	"weseer/internal/sqlast"
	"weseer/internal/trace"
)

// twoIndexSchema has a table with two secondary indexes, so a SELECT
// binding both can, in the paper's conservative model, be assumed to use
// either — the all-join-orders false-positive source of Sec. V-D.
func twoIndexSchema() *schema.Schema {
	s := schema.New()
	s.AddTable("T").
		Col("ID", schema.Int).
		Col("A", schema.Int).
		Col("B", schema.Int).
		PrimaryKey("ID").
		Index("idx_a", "A").
		Index("idx_b", "B")
	return s
}

// TestFilterByPlan keeps planned indexes, primary rows, and table locks.
func TestFilterByPlan(t *testing.T) {
	scm := twoIndexSchema()
	sel := sqlast.MustParse(`SELECT * FROM T t WHERE t.A = ? AND t.B = ?`)
	all := GenSharedLocks(sel, scm, "T", true)
	// Conservative model: range locks on both idx_a and idx_b.
	names := map[string]bool{}
	for _, l := range all {
		if l.Index != nil {
			names[l.Index.Name] = true
		}
	}
	if !names["idx_a"] || !names["idx_b"] {
		t.Fatalf("expected both secondary indexes in %v", all)
	}
	plan := []trace.PlanStep{{Alias: "t", Table: "T", Index: "idx_a"}}
	filtered := FilterByPlan(all, plan)
	for _, l := range filtered {
		if l.Index != nil && l.Index.Name == "idx_b" {
			t.Errorf("idx_b lock survived plan filtering: %v", filtered)
		}
	}
	// A nil plan filters nothing.
	if got := FilterByPlan(all, nil); len(got) != len(all) {
		t.Errorf("nil plan changed lock set: %d vs %d", len(got), len(all))
	}
}

// TestConcretePlanRemovesFalsePositive is the paper's Sec. V-D scenario:
// an empty SELECT that could use either index is assumed to range-lock
// both; a writer touching only idx_b then conflicts. With the concrete
// plan (idx_a), the conflict disappears.
func TestConcretePlanRemovesFalsePositive(t *testing.T) {
	scm := twoIndexSchema()
	read := &trace.Stmt{
		SQL:    `SELECT * FROM T t WHERE t.A = ? AND t.B = ?`,
		Parsed: sqlast.MustParse(`SELECT * FROM T t WHERE t.A = ? AND t.B = ?`),
		Res:    &trace.Result{Cols: []string{"t.ID"}, Empty: true},
		Plan:   []trace.PlanStep{{Alias: "t", Table: "T", Index: "idx_a"}},
	}
	read.Params = append(read.Params,
		trace.Param{Sym: smt.NewVar("a", smt.SortInt)},
		trace.Param{Sym: smt.NewVar("b", smt.SortInt)})
	write := &trace.Stmt{
		SQL:    `UPDATE T SET B = ? WHERE ID = ?`,
		Parsed: sqlast.MustParse(`UPDATE T SET B = ? WHERE ID = ?`),
		Plan:   []trace.PlanStep{{Alias: "T", Table: "T", Index: "PRIMARY"}},
	}
	write.Params = append(write.Params,
		trace.Param{Sym: smt.NewVar("nb", smt.SortInt)},
		trace.Param{Sym: smt.NewVar("id", smt.SortInt)})

	// Conservative model: the reader's assumed idx_b range lock collides
	// with the writer's idx_b range.
	if !PotentialConflict(read, write, scm, false) {
		t.Fatal("conservative model should flag the idx_b collision")
	}
	// Concrete plans: the reader only locked idx_a (plus no primary row —
	// the result was empty), so no collision remains.
	if PotentialConflict(read, write, scm, true) {
		t.Fatal("concrete plans should remove the false positive")
	}
	// The conflict condition collapses to False as well.
	cond := GenConflictCond(write, read, scm, "T", "r1.", NewNamer("p."), true)
	if cond != smt.Expr(smt.False) {
		t.Errorf("planned conflict condition = %v, want false", cond)
	}
}

// TestConcretePlansKeepTruePositives: the Fig. 9 conflict survives plan
// filtering because the plan really uses the conflicting index.
func TestConcretePlansKeepTruePositives(t *testing.T) {
	scm := fig1Schema()
	read := mkStmt(`SELECT * FROM Product p WHERE p.ID = ?`, []smt.Expr{smt.NewVar("A1.pid", smt.SortInt)}, &trace.Result{
		Cols:  []string{"p.ID", "p.QTY"},
		Empty: true,
	})
	read.Plan = []trace.PlanStep{{Alias: "p", Table: "Product", Index: "PRIMARY"}}
	write := mkStmt(`INSERT INTO Product (ID, QTY) VALUES (?, ?)`,
		[]smt.Expr{smt.NewVar("A2.pid", smt.SortInt), smt.NewVar("A2.q", smt.SortInt)}, nil)
	write.Plan = []trace.PlanStep{{Alias: "Product", Table: "Product", Index: "PRIMARY"}}
	if !PotentialConflict(read, write, scm, true) {
		t.Fatal("true positive removed by plan filtering")
	}
}

// TestEdgeCondKeysOnPlan: two instances of one template differing only in
// their recorded plan get separate C-edge templates, the plan being part
// of the skeleton key: under usePlans the conservative read's condition
// names the idx_b range it may lock, the planned read's is false.
func TestEdgeCondKeysOnPlan(t *testing.T) {
	scm := twoIndexSchema()
	read := func(a, b string, plan []trace.PlanStep) *trace.Stmt {
		sql := `SELECT * FROM T t WHERE t.A = ? AND t.B = ?`
		return &trace.Stmt{SQL: sql, Parsed: sqlast.MustParse(sql), Plan: plan,
			Res:    &trace.Result{Cols: []string{"t.ID"}, Empty: true},
			Params: []trace.Param{{Sym: smt.NewVar(a, smt.SortInt)}, {Sym: smt.NewVar(b, smt.SortInt)}}}
	}
	sql := `UPDATE T SET B = ? WHERE ID = ?`
	write := &trace.Stmt{SQL: sql, Parsed: sqlast.MustParse(sql), // no plan: its idx_b lock stays
		Params: []trace.Param{{Sym: smt.NewVar("nb", smt.SortInt)}, {Sym: smt.NewVar("id", smt.SortInt)}}}
	reads := []*trace.Stmt{
		read("a1", "b1", nil),
		read("a2", "b2", []trace.PlanStep{{Alias: "t", Table: "T", Index: "idx_a"}}),
		read("a3", "b3", nil),
	}
	for _, usePlans := range []bool{false, true} {
		model := func(st *trace.Stmt) *Model { return ModelOf(SkeletonOf(st), scm, usePlans) }
		for _, r := range reads {
			checkEdgeCond(t, r, write, model(r), model(write), usePlans)
		}
		if e := EdgeTemplate(model(reads[1]), model(write), "r1."); (e.Cond == smt.False) != usePlans {
			t.Errorf("plans=%v: the planned read's condition is %s", usePlans, e.Cond)
		}
	}
	keys := map[string]bool{}
	for _, r := range reads {
		keys[SkeletonOf(r).Key] = true
	}
	if len(keys) != 2 {
		t.Errorf("%d skeleton keys over the reads, want 2", len(keys))
	}
}
