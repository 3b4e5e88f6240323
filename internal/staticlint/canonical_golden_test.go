package staticlint_test

import (
	"os"
	"path/filepath"
	"testing"

	"weseer/internal/apps/broadleaf"
	"weseer/internal/apps/shopizer"
	"weseer/internal/schema"
	"weseer/internal/staticlint"
)

// loadApp loads one source tree the way `weseer vet` does: once, for both
// findings and shapes.
func loadApp(t *testing.T, dir string) *staticlint.Program {
	t.Helper()
	p, err := staticlint.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func checkGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("output differs from %s (re-run with -update):\ngot:\n%swant:\n%s", golden, got, want)
	}
}

// TestCanonicalOrderGolden locks the exact `weseer vet -canonical-order`
// output — canonical order, ranked suggestions, source sites — on both
// model applications, in both the text and the -json rendering.
//
// Golden delta vs PR 5: shapes resolve callees whole-program, so a
// handler's transaction template includes the statements of its
// non-transaction-opening helpers, located at their real (leaf)
// acquisition sites. Direction votes and reorder suggestions therefore
// cite more sites per API than PR 5's one-level heuristic, while
// workload drivers (Flow/UnitTests) contribute nothing: the handler
// APIs they invoke open their own transactions and are treated as
// boundaries, not inlined.
func TestCanonicalOrderGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		dir  string
		scm  *schema.Schema
	}{
		{"broadleaf", "../apps/broadleaf", broadleaf.Schema()},
		{"shopizer", "../apps/shopizer", shopizer.Schema()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := loadApp(t, tc.dir)
			shapes := prog.Shapes(tc.scm)
			if len(shapes) == 0 {
				t.Fatalf("no transaction shapes under %s", tc.dir)
			}
			co := staticlint.CanonicalizeShapes(shapes, tc.scm)
			if len(co.Suggestions) == 0 {
				t.Errorf("%s: expected at least one reorder suggestion", tc.name)
			}
			checkGolden(t, filepath.Join("testdata", "golden", "canonical_"+tc.name+".txt"),
				[]byte(co.Render()))

			fs := prog.Findings(tc.scm)
			data, err := staticlint.EncodeReport(fs, co)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", "golden", "canonical_"+tc.name+".json"), data)

			// The -json envelope must round-trip the canonical order.
			back, err := decodeReport(data)
			if err != nil {
				t.Fatal(err)
			}
			if len(back.Findings) != len(fs) || back.Canonical == nil || len(back.Canonical.Suggestions) != len(co.Suggestions) {
				t.Fatalf("report round-trip lost data: %d/%d findings, co=%v", len(back.Findings), len(fs), back.Canonical)
			}
		})
	}
}

// TestVetDeterministic is the nondeterminism regression gate: the whole
// linter output — findings and canonical order, text and JSON — must be
// byte-identical across 20 repeated runs. Any map-ranged emission in
// the analyzers shows up here as a diff. The whole-program path (CHA
// candidate enumeration, SCC fixpoint, summary splicing) is covered by
// the multi-package wholeprog corpus alongside the model apps. Runs 0
// and 1 each load the corpora from disk; the rest re-scan the second
// load's type-checked trees (go/types is not where the maps are ranged,
// and verify.sh diffs two whole processes besides).
func TestVetDeterministic(t *testing.T) {
	corpora := []struct {
		dir string
		scm *schema.Schema
	}{
		{"../apps/broadleaf", broadleaf.Schema()},
		{"../apps/shopizer", shopizer.Schema()},
		{filepath.Join("testdata", "src", "wholeprog"), nil},
	}
	load := func() []*staticlint.Program {
		var progs []*staticlint.Program
		for _, tc := range corpora {
			progs = append(progs, loadApp(t, tc.dir))
		}
		return progs
	}
	type out struct {
		text string
		data string
	}
	one := func(progs []*staticlint.Program) out {
		var text, data []byte
		for i, tc := range corpora {
			fs := progs[i].Findings(tc.scm)
			co := staticlint.CanonicalizeShapes(progs[i].Shapes(tc.scm), tc.scm)
			text = append(text, render(fs)...)
			text = append(text, co.Render()...)
			enc, err := staticlint.EncodeReport(fs, co)
			if err != nil {
				t.Fatal(err)
			}
			data = append(data, enc...)
		}
		return out{string(text), string(data)}
	}
	first := one(load())
	progs := load()
	for run := 1; run < 20; run++ {
		if got := one(progs); got != first {
			t.Fatalf("run %d produced different output than run 0", run)
		}
		for _, p := range progs {
			p.Rescan()
		}
	}
}
