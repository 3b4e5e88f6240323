package staticlint_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"weseer/internal/apps/broadleaf"
	"weseer/internal/apps/shopizer"
	"weseer/internal/schema"
	"weseer/internal/staticlint"
)

var update = flag.Bool("update", false, "rewrite golden files")

func render(fs []staticlint.Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(f.String())
		b.WriteString("\n")
	}
	return b.String()
}

// TestFixturesGolden locks the exact findings on the anti-pattern
// fixtures: each exhibits its class, the clean package reports nothing.
//
// Golden delta vs PR 5: Vet now defaults to whole-program resolution,
// so the wholeprog/diamond/recv corpora report hazards whose lock sits
// in a callee — their finding details carry "via <call chain> at
// <leaf site>" provenance. The single-package f2/f4/f9/clean goldens
// are byte-identical to PR 5: their callees never resolve (the
// fixtures deliberately don't type-check and have no matching local
// declarations), so richer resolution changes nothing there.
func TestFixturesGolden(t *testing.T) {
	for _, name := range []string{"f2", "f4", "f9", "clean", "wholeprog", "diamond", "recv", "repeat"} {
		t.Run(name, func(t *testing.T) {
			fs := loadApp(t, filepath.Join("testdata", "src", name)).Findings(nil)
			if name == "clean" && len(fs) != 0 {
				t.Fatalf("clean fixture must have zero findings, got:\n%s", render(fs))
			}
			golden := filepath.Join("testdata", "golden", name+".txt")
			got := render(fs)
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("findings differ from %s (re-run with -update):\ngot:\n%swant:\n%s", golden, got, want)
			}
		})
	}
}

// has reports whether a finding of the kind exists at file:line.
func has(fs []staticlint.Finding, kind, file string, line int) bool {
	for _, f := range fs {
		if f.Kind == kind && strings.HasSuffix(f.File, file) && f.Line == line {
			return true
		}
	}
	return false
}

// TestVetApps checks that both analyzers statically rediscover the
// anti-pattern classes behind the Table II fixes at their real source
// locations in the model applications.
func TestVetApps(t *testing.T) {
	bf := loadApp(t, "../apps/broadleaf").Findings(broadleaf.Schema())
	sf := loadApp(t, "../apps/shopizer").Findings(shopizer.Schema())
	checks := []struct {
		fs   []staticlint.Finding
		kind string
		file string
		line int
		why  string
	}{
		{bf, staticlint.KindMergeSelectInsert, "broadleaf/api.go", 38, "d1: Register's Merge (fix f1)"},
		{bf, staticlint.KindUpsertCandidate, "broadleaf/api.go", 167, "d2: cartLock's check-then-insert (fix f2)"},
		{bf, staticlint.KindFlushReorder, "broadleaf/api.go", 86, "d5: Add2's buffered offer counter (fix f4)"},
		{bf, staticlint.KindFlushReorder, "broadleaf/api.go", 87, "d6: Add2's buffered fulfillment counter (fix f4)"},
		{bf, staticlint.KindUnorderedLocks, "broadleaf/api.go", 433, "Checkout's per-item quantity loop (Sec. V-D applock site)"},
		{sf, staticlint.KindUnorderedLocks, "shopizer/api.go", 94, "d14-d16: priceProducts' per-product loop (fix f9)"},
		{sf, staticlint.KindUnorderedLocks, "shopizer/api.go", 185, "d18: readCartProducts' loop (fix f11)"},
		{sf, staticlint.KindUnorderedLocks, "shopizer/api.go", 207, "d16/d17: commitProducts' loop (fix f10)"},
		{sf, staticlint.KindUpsertCandidate, "shopizer/api.go", 60, "Add's check-then-insert of the cart item"},
		{sf, staticlint.KindLockOrderInversion, "shopizer/api.go", 100, "d14: priceProducts' read-then-write upgrade on Product"},
	}
	for _, c := range checks {
		if !has(c.fs, c.kind, c.file, c.line) {
			t.Errorf("missing %s at %s:%d (%s)\nall findings:\n%s", c.kind, c.file, c.line, c.why, render(c.fs))
		}
	}
	// The fixed helper must stay clean: serializeProducts sorts before
	// locking (fix f9's implementation).
	for _, f := range sf {
		if f.Func == "serializeProducts" {
			t.Errorf("false positive on the sorted lock helper: %s", f)
		}
	}
}

// TestProgramServesFindingsAndShapes: one Load answers both questions
// `weseer vet -canonical-order` asks of a tree, each as often as asked,
// and the deprecated VetDir shim (its own Load) finds what a Program does.
func TestProgramServesFindingsAndShapes(t *testing.T) {
	for _, tc := range []struct {
		dir string
		scm *schema.Schema
	}{
		{filepath.Join("testdata", "src", "wholeprog"), nil},
		{"../apps/broadleaf", broadleaf.Schema()},
		{"../apps/shopizer", shopizer.Schema()},
	} {
		prog := loadApp(t, tc.dir)
		fs, err := staticlint.VetDir(tc.dir, tc.scm, staticlint.DefaultVetOptions())
		if err != nil {
			t.Fatal(err)
		}
		if got := prog.Findings(tc.scm); len(got) == 0 || !reflect.DeepEqual(got, fs) {
			t.Errorf("%s: Program.Findings differs from VetDir:\ngot:\n%swant:\n%s", tc.dir, render(got), render(fs))
		}
		shapes := prog.Shapes(tc.scm)
		if again := prog.Shapes(tc.scm); len(shapes) == 0 || !reflect.DeepEqual(again, shapes) {
			t.Errorf("%s: Program.Shapes answers %d shapes, then %d", tc.dir, len(shapes), len(again))
		}
	}
}

// report is the `weseer vet -json` envelope as a reader decodes it.
type report struct {
	Version   int                        `json:"version"`
	Findings  []staticlint.Finding       `json:"findings"`
	Canonical *staticlint.CanonicalOrder `json:"canonical_order"`
}

// decodeReport parses a vet report, refusing any version but JSONVersion.
func decodeReport(data []byte) (report, error) {
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return r, err
	}
	if r.Version != staticlint.JSONVersion {
		return r, fmt.Errorf("report version %d, want %d", r.Version, staticlint.JSONVersion)
	}
	return r, nil
}

// TestJSONRoundTrip locks the versioned -json schema.
func TestJSONRoundTrip(t *testing.T) {
	fs := loadApp(t, "../apps/shopizer").Findings(shopizer.Schema())
	data, err := staticlint.EncodeReport(fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fs, back.Findings) || back.Canonical != nil {
		t.Fatalf("findings did not round-trip through JSON (canonical section %v)", back.Canonical)
	}
	if _, err := decodeReport([]byte(`{"version":99,"findings":[]}`)); err == nil {
		t.Fatal("expected version mismatch error")
	}
	var empty []staticlint.Finding
	data, err = staticlint.EncodeReport(empty, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back, err = decodeReport(data); err != nil || back.Findings == nil || len(back.Findings) != 0 {
		t.Fatalf("empty report round-trip: %v %v", back.Findings, err)
	}
}

// TestVetReportsEachHazardOnce: vet decides the write-behind slide in one
// place and reports it once. Over both model apps and every fixture, no
// two findings share a (file, line, kind, func) key, and a flush-reorder
// finding names every known slid write, either at its own line or as the
// leaf of its "write buffered via" provenance: Broadleaf's d5/d6 counters
// (86, 87), the cart lock, the new item's and the bumped item's order
// totals, the bumped item and price detail, Ship's status and Checkout's
// per-item quantity; Shopizer's per-product price; the f4 fixture.
func TestVetReportsEachHazardOnce(t *testing.T) {
	type corpus struct {
		dir   string
		scm   *schema.Schema
		sites []string
	}
	corpora := []corpus{
		{"../apps/broadleaf", broadleaf.Schema(), []string{
			"broadleaf/api.go:86", "broadleaf/api.go:87", "broadleaf/api.go:174",
			"broadleaf/api.go:202", "broadleaf/api.go:226", "broadleaf/api.go:227",
			"broadleaf/api.go:241", "broadleaf/api.go:349", "broadleaf/api.go:457",
		}},
		{"../apps/shopizer", shopizer.Schema(), []string{"shopizer/api.go:100"}},
	}
	fixtures, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range fixtures {
		c := corpus{dir: filepath.Join("testdata", "src", e.Name())}
		if e.Name() == "f4" {
			c.sites = []string{"f4/f4.go:9"}
		}
		corpora = append(corpora, c)
	}
	for _, c := range corpora {
		fs := loadApp(t, c.dir).Findings(c.scm)
		seen := map[string]staticlint.Finding{}
		for _, f := range fs {
			key := fmt.Sprintf("%s:%d %s %s", f.File, f.Line, f.Kind, f.Func)
			if prev, ok := seen[key]; ok {
				t.Errorf("%s: %s reported twice:\n  %s\n  %s", c.dir, key, prev, f)
			}
			seen[key] = f
		}
		for _, site := range c.sites {
			named := false
			for _, f := range fs {
				own := fmt.Sprintf("%s:%d", f.File, f.Line)
				if f.Kind == staticlint.KindFlushReorder &&
					(strings.HasSuffix(own, "/"+site) || strings.HasSuffix(f.Detail, "/"+site)) {
					named = true
				}
			}
			if !named {
				t.Errorf("%s: no flush-reorder finding names %s:\n%s", c.dir, site, render(fs))
			}
		}
	}
}

// TestEveryKindFires: every Kind* constant the package declares is
// reported at least once over the fixtures and both model apps, so
// a detector that no corpus exercises fails here instead of lingering.
// The constants are read from the package source, so a newly declared
// kind is checked without editing this test.
func TestEveryKindFires(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{} // kind value -> constant name
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "Kind") || i >= len(vs.Values) {
						continue
					}
					if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						v, err := strconv.Unquote(lit.Value)
						if err != nil {
							t.Fatal(err)
						}
						declared[v] = name.Name
					}
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("no Kind* constants found in the package source")
	}
	type corpus struct {
		dir string
		scm *schema.Schema
	}
	corpora := []corpus{{"../apps/broadleaf", broadleaf.Schema()}, {"../apps/shopizer", shopizer.Schema()}}
	fixtures, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range fixtures {
		corpora = append(corpora, corpus{dir: filepath.Join("testdata", "src", e.Name())})
	}
	fired := map[string]bool{}
	for _, c := range corpora {
		for _, f := range loadApp(t, c.dir).Findings(c.scm) {
			fired[f.Kind] = true
		}
	}
	for kind, name := range declared {
		if !fired[kind] {
			t.Errorf("%s (%q) is declared but no fixture or model app reports it", name, kind)
		}
	}
}
