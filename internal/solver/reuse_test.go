package solver_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"weseer/internal/smt"
	"weseer/internal/solver"
)

// goldenLine renders res as internal/core's TestSolverCorpusGolden does:
// verdict, model (without variable names on Broadleaf, whose collection
// does not pin them) and every counter.
func goldenLine(res solver.Result, spec string) string {
	model := "-"
	if m := res.Model; m != nil && spec != "broadleaf" {
		model = m.String()
	} else if m != nil {
		vals := make([]string, 0, len(m.Vars))
		for _, v := range m.Vars {
			vals = append(vals, v.S.String()+"="+v.String())
		}
		sort.Strings(vals)
		model = strings.Join(vals, ", ")
	}
	return fmt.Sprintf("%s | %s | %+v", res.Status, model, res.Stats)
}

// TestSolverReuseMatchesFresh: one Solver solves every cycle formula of the
// Table II apps and a generated corpus, in canonical form, in the golden
// file's order and then in a seeded shuffle, and between formulas it also
// takes a call canceled mid-search and one that runs out of theory budget.
// Every corpus Result is the golden line, which fresh Solvers wrote
// (TestSolverCorpusGolden): a reused workspace carries nothing from one
// call into the next.
func TestSolverReuseMatchesFresh(t *testing.T) {
	raw, err := os.ReadFile("../core/testdata/solver_corpus.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, l := range bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n")) {
		if !bytes.HasPrefix(l, []byte("#")) {
			want = append(want, string(l))
		}
	}
	type item struct {
		spec string
		f    smt.Expr
	}
	var items []item
	for _, spec := range []string{"broadleaf", "shopizer", "gen:7,templates=96"} {
		for _, f := range corpusFormulas(t, spec) {
			items = append(items, item{spec, smt.Canon(f).Expr})
		}
	}
	if len(items) != len(want) {
		t.Fatalf("%d corpus formulas, %d golden lines", len(items), len(want))
	}

	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	hard := solver.HardFormula(20)
	free := solver.PollCtx(live, math.MaxInt)
	if res := new(solver.Solver).Solve(free, hard); res.Status == solver.UNKNOWN {
		t.Fatal("the uncanceled solve gave up")
	}
	half := solver.Polls(free) / 2

	var sv solver.Solver
	disturb := func() {
		if res := sv.Solve(solver.PollCtx(live, half), hard); res.Status != solver.UNKNOWN {
			t.Fatalf("canceled mid-search: %s, want UNKNOWN", res.Status)
		}
		solver.SetBudget(&sv, 1)
		res := sv.Solve(context.Background(), hard)
		solver.SetBudget(&sv, 0)
		if res.Status != solver.UNKNOWN || res.Stats.TheoryCalls != 1 {
			t.Fatalf("one theory call's budget: %s after %d calls, want UNKNOWN after 1", res.Status, res.Stats.TheoryCalls)
		}
	}
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	for pass := range 2 {
		if pass == 1 {
			rand.New(rand.NewSource(7)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		for n, i := range order {
			if n%40 == 0 {
				disturb()
			}
			if got := goldenLine(sv.Solve(context.Background(), items[i].f), items[i].spec); got != want[i] {
				t.Fatalf("pass %d, formula %d of %s:\n got %s\nwant %s", pass, i, items[i].spec, got, want[i])
			}
		}
	}
}
