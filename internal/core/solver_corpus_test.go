package core_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"weseer/internal/smt"
	"weseer/internal/solver"
)

// renderModel is m.String(), or without the variable names when the
// corpus cannot pin them: Broadleaf's collection hydrates join aliases in
// map order, so which canonical name an unconstrained variable gets
// varies from run to run while the values (and the search) do not.
func renderModel(m *smt.Model, names bool) string {
	if names {
		return m.String()
	}
	vals := make([]string, 0, len(m.Vars))
	for _, v := range m.Vars {
		vals = append(vals, v.S.String()+"="+v.String())
	}
	sort.Strings(vals)
	return strings.Join(vals, ", ")
}

var updateSolverCorpus = flag.Bool("update-solver-corpus", false, "rewrite testdata/solver_corpus.golden")

// TestSolverCorpusGolden pins what the solver says of every cycle formula
// of the Table II apps and a generated corpus, in canonical form (the
// form phase 3 actually solves): verdict, model and every Stats counter.
// The app goldens pin the SAT models that reach a report; this also pins
// the UNSAT side's search and the formulas no report shows. A changed
// line means the search changed, which a representation change inside
// the solver must never do.
func TestSolverCorpusGolden(t *testing.T) {
	var got bytes.Buffer
	for _, spec := range corpusSpecs {
		formulas := corpusFormulas(t, spec)
		fmt.Fprintf(&got, "# %s: %d cycle formulas\n", spec, len(formulas))
		for _, f := range formulas {
			res := new(solver.Solver).Solve(context.Background(), smt.Canon(f).Expr)
			model := "-"
			if res.Model != nil {
				model = renderModel(res.Model, spec != "broadleaf")
			}
			fmt.Fprintf(&got, "%s | %s | %+v\n", res.Status, model, res.Stats)
		}
	}
	const path = "testdata/solver_corpus.golden"
	if *updateSolverCorpus {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d differs:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%d lines, golden has %d", len(gl), len(wl))
	}
}
