package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"weseer/internal/schema"
	"weseer/internal/smt"
	"weseer/internal/trace"
)

// renameTrace returns a deep copy of the trace with every symbolic
// variable (and container array) prefixed, so two instances of the same
// trace have disjoint symbol spaces (e.g. "A1." and "A2." in Fig. 9). It
// was trace.Trace.Rename, what the analyzer did to every trace twice
// before it read them in place; it survives here as the oracle the
// in-place reads (run.edges, run.cone) are checked against.
func renameTrace(tr *trace.Trace, prefix string) *trace.Trace {
	f := func(s string) string { return prefix + s }
	out := &trace.Trace{API: tr.API, Stats: tr.Stats}
	for _, in := range tr.Inputs {
		in.Name = prefix + in.Name
		out.Inputs = append(out.Inputs, in)
	}
	for _, txn := range tr.Txns {
		nt := &trace.Txn{ID: txn.ID, Committed: txn.Committed}
		for _, st := range txn.Stmts {
			nt.Stmts = append(nt.Stmts, renameStmt(st, prefix))
		}
		out.Txns = append(out.Txns, nt)
	}
	for _, pc := range tr.PathConds {
		out.PathConds = append(out.PathConds, trace.PathCond{
			AfterStmt: pc.AfterStmt,
			Cond:      smt.Rename(pc.Cond, f),
		})
	}
	return out
}

// renameStmt is renameTrace for one statement: a copy whose parameter and
// result symbols carry the prefix — what the analyzer handed the lock
// model for each role before C-edge conditions were built per template,
// and what TestEdgeTemplatesMatchDirectBuild still builds them from.
func renameStmt(st *trace.Stmt, prefix string) *trace.Stmt {
	f := func(s string) string { return prefix + s }
	ns := &trace.Stmt{
		Seq: st.Seq, TxnID: st.TxnID, SQL: st.SQL, Parsed: st.Parsed,
		Plan: st.Plan, Trigger: st.Trigger, Sent: st.Sent,
	}
	for _, p := range st.Params {
		ns.Params = append(ns.Params, trace.Param{Sym: smt.Rename(p.Sym, f), Concrete: p.Concrete})
	}
	if st.Res != nil {
		nr := &trace.Result{Cols: st.Res.Cols, Empty: st.Res.Empty, Concrete: st.Res.Concrete}
		for _, row := range st.Res.Sym {
			nrow := make([]smt.Var, len(row))
			for i, v := range row {
				nrow[i] = smt.Var{Name: prefix + v.Name, S: v.S}
			}
			nr.Sym = append(nr.Sym, nrow)
		}
		ns.Res = nr
	}
	return ns
}

// TestRenameTrace pins the oracle itself: every symbol of the copy carries
// the prefix, container arrays included, and the source is untouched.
func TestRenameTrace(t *testing.T) {
	tr := finishOrderTrace()
	key := smt.NewVar("order_id", smt.SortInt)
	tr.PathConds = append(tr.PathConds, trace.PathCond{
		Cond: smt.Read(smt.NewArray("cache@1", smt.SortInt).Store(key, true), key),
	})
	before := tr.PathConds[len(tr.PathConds)-1].Cond.String()
	r := renameTrace(tr, "A1.")
	if r.Inputs[0].Name != "A1."+tr.Inputs[0].Name {
		t.Errorf("input = %v", r.Inputs[0])
	}
	st, rst := tr.Txns[0].Stmts[0], r.Txns[0].Stmts[0]
	if got, want := rst.Params[0].Sym.String(), "A1."+st.Params[0].Sym.String(); got != want {
		t.Errorf("param = %s, want %s", got, want)
	}
	if got, want := rst.Res.Sym[0][0].Name, "A1."+st.Res.Sym[0][0].Name; got != want {
		t.Errorf("alias = %s, want %s", got, want)
	}
	if rst.Trigger.Frames[0] != st.Trigger.Frames[0] {
		t.Errorf("renamed trace's frames = %v", rst.Trigger.Frames)
	}
	got := r.PathConds[len(r.PathConds)-1].Cond.String()
	if !strings.Contains(got, "A1.cache@1") || !strings.Contains(got, "A1.order_id") {
		t.Errorf("array path condition not renamed: %s", got)
	}
	if after := tr.PathConds[len(tr.PathConds)-1].Cond.String(); after != before || tr.Inputs[0].Name == r.Inputs[0].Name {
		t.Error("rename mutated the source trace")
	}
}

// CheckViewsAgainstRenamedCopies is the views-vs-copies differential: the
// analysis as shipped — recorded traces read in place, prefixes applied to
// a statement view or an in-cone path condition on first use — against the
// deep-copy pipeline it replaced (enumerateNaive over renameTrace copies).
// Formulas must be string-identical in enumeration order; reports, funnel
// counters, models and fingerprints identical at 1 and 4 workers. Exported for the corpus test in package
// core_test, which (unlike this package) may import the apps.
func CheckViewsAgainstRenamedCopies(t *testing.T, scm *schema.Schema, traces []*trace.Trace) {
	t.Helper()
	ctx := context.Background()
	a := NewAnalyzer(scm)
	got, err := a.CycleFormulas(ctx, traces)
	if err != nil {
		t.Fatal(err)
	}
	r := a.newRun()
	chains, _, _ := r.enumerateNaive(ctx, traces, true)
	n := 0
	for _, ch := range chains {
		for _, cyc := range ch.cycles {
			if want := r.cycleFormula(cyc).String(); n >= len(got) || got[n].String() != want {
				t.Fatalf("cycle formula %d differs from the one over renamed copies:\nwant %s", n, want)
			}
			n++
		}
	}
	if n != len(got) {
		t.Fatalf("%d cycle formulas, %d over renamed copies", len(got), n)
	}

	report := func(res *Result) string {
		res.Stats = comparable(res.Stats)
		return res.Render()
	}
	oracle, _, err := analyzeRecording(ctx, scm, traces, true, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		res, err := NewAnalyzer(scm, WithParallelism(workers)).AnalyzeContext(ctx, traces)
		if err != nil {
			t.Fatal(err)
		}
		if comparable(res.Stats) != comparable(oracle.Stats) {
			t.Errorf("p%d: funnel differs:\ncopies: %+v\nviews:  %+v",
				workers, comparable(oracle.Stats), comparable(res.Stats))
		}
		if !reflect.DeepEqual(deadlockSigs(res), deadlockSigs(oracle)) || report(res) != report(oracle) {
			t.Errorf("p%d: report differs from the one over renamed copies", workers)
		}
	}
}

// TestAnalysisReadsTracesInPlace: everything a Result (and every chain
// behind it) points at is an object of the input traces, not a copy, and
// the analysis wrote through none of the slices it shares with them.
func TestAnalysisReadsTracesInPlace(t *testing.T) {
	traces := pipelineTraces()
	var snapshot []*trace.Trace
	owner := map[any]*trace.Trace{}
	for _, tr := range traces {
		snapshot = append(snapshot, renameTrace(tr, ""))
		owner[tr] = tr
		for _, txn := range tr.Txns {
			owner[txn] = tr
			for _, st := range txn.Stmts {
				owner[st] = tr
			}
		}
	}
	res, chains, err := analyzeRecording(context.Background(), fig1Schema(), traces, false, WithParallelism(4))
	if err != nil || len(res.Deadlocks) == 0 {
		t.Fatalf("fixture: %d deadlocks, err %v", len(res.Deadlocks), err)
	}
	cycles := 0
	check := func(c Cycle) {
		cycles++
		for _, side := range []struct {
			in   *instance
			a, b *trace.Stmt
		}{{c.T1, c.S1a, c.S1b}, {c.T2, c.S2a, c.S2b}} {
			tr := owner[side.in.Trace]
			if tr == nil || owner[side.in.Txn] != tr || owner[side.a] != tr || owner[side.b] != tr {
				t.Fatalf("cycle %d (%s): a statement, transaction or trace is not the recorded object", cycles, side.in.API)
			}
		}
	}
	for _, ch := range chains {
		for _, c := range ch.cycles {
			check(c)
		}
	}
	for _, d := range res.Deadlocks {
		check(d.Cycle)
	}
	for i, tr := range traces {
		if !reflect.DeepEqual(renameTrace(tr, ""), snapshot[i]) {
			t.Errorf("trace %s changed under analysis", tr.API)
		}
	}
}
