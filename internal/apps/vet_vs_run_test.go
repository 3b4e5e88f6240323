package apps

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/staticlint"
	"weseer/internal/trace"
)

// vetTriage classifies every site `weseer vet` names that no report of
// `weseer run` on the same app touches, keyed "app kind func file:line":
//
//   - recall-miss: a deadlock the lock model or the unit tests do not
//     reach, so run cannot report it;
//   - false-positive: vet's over-approximation, no hazard at the site;
//   - no-deadlock-hazard: the pattern is real, but the harm it does
//     needs no deadlock (DESIGN, "What vet reports that run does not").
var vetTriage = map[string]string{
	// Add's existence queries run before its transaction and auto-commit,
	// so no range lock spans the INSERT: two first adds can both insert
	// (a duplicate cart or cart item), but nothing waits.
	"shopizer upsert-candidate Add api.go:51": "no-deadlock-hazard",
	"shopizer upsert-candidate Add api.go:60": "no-deadlock-hazard",
	// The shared locks these upgrades start from are taken by the same
	// auto-committed reads, released before the transaction writes; Find
	// at line 71 answers from the session cache with no SQL.
	"shopizer lock-order-inversion Add api.go:75": "false-positive",
	"shopizer lock-order-inversion Add api.go:80": "false-positive",
}

// TestVetVsRun joins each model app's vet findings with run's reports at
// function grain, Sec. VI's trigger-code mapping applied to both: a
// finding names its function and line, and, when the hazard sits in a
// callee, the provenance leaf's function and line; a report names the
// trigger and sent frames of its four cycle statements. A finding is
// shared with a report when its function or leaf function is the
// innermost function of one of those frames ("func"), and the join says
// "line" when a frame of the stacks sits on the finding's or the leaf's
// very line. A line-only join undercounts: a loop header or an if line
// is never a trigger line. Per kind, testdata/vet_vs_run.golden lists the
// shared sites with the report classes they join, the vet-only sites with
// their triage word, and the run-only functions no finding of the kind
// names (go test ./internal/apps -run VetVsRun -update rewrites it).
func TestVetVsRun(t *testing.T) {
	var b strings.Builder
	b.WriteString("# weseer vet findings joined with weseer run's reports (TestVetVsRun).\n" +
		"# shared: finding [line|func grain] report classes; vet-only: finding triage;\n" +
		"# run-only: innermost report function no finding names, report classes.\n")
	for _, name := range []string{"broadleaf", "shopizer"} {
		app, err := Open(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := staticlint.Load(filepath.Join("..", "..", app.(Sourcer).SourceDir()))
		if err != nil {
			t.Fatal(err)
		}
		traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.NewAnalyzer(app.Schema()).AnalyzeContext(context.Background(), traces)
		if err != nil {
			t.Fatal(err)
		}
		joinVetRun(t, &b, name, prog.Findings(app.Schema()), res.Deadlocks, app.Classify)
	}
	got := b.String()
	golden := filepath.Join("testdata", "vet_vs_run.golden")
	if *update {
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
		gotPath := filepath.Join(t.TempDir(), "vet_vs_run.golden")
		os.WriteFile(gotPath, []byte(got), 0o644)
		t.Errorf("join differs from %s (got: %s; re-run with -update and review)", golden, gotPath)
	}
}

// codeSite is one function-and-line location, file by base name (the two
// tools print paths relative to different roots).
type codeSite struct {
	file, fn string
	line     int
}

func (s codeSite) String() string { return fmt.Sprintf("%s %s:%d", s.fn, s.file, s.line) }

// frameSite maps a stack frame to its codeSite, naming a closure by its
// enclosing function as vet does: "broadleaf.(*App).Add.func1.1" is Add.
func frameSite(f trace.Frame) codeSite {
	fn := f.Func[strings.LastIndex(f.Func, "/")+1:]
	if i := strings.LastIndex(fn, ")."); i >= 0 {
		fn = fn[i+2:]
	} else if i := strings.Index(fn, "."); i >= 0 {
		fn = fn[i+1:]
	}
	fn, _, _ = strings.Cut(fn, ".")
	return codeSite{file: filepath.Base(f.File), fn: fn, line: f.Line}
}

// viaLeaf reads a finding's provenance suffix: "... via App.cartLock at
// internal/apps/broadleaf/api.go:174".
var viaLeaf = regexp.MustCompile(`via (?:\S+ -> )*(\S+) at (\S+):(\d+)$`)

// findingSites returns the finding's own site and, for a hazard spliced
// in from a callee, its provenance leaf.
func findingSites(f staticlint.Finding) []codeSite {
	sites := []codeSite{{file: filepath.Base(f.File), fn: f.Func, line: f.Line}}
	if m := viaLeaf.FindStringSubmatch(f.Detail); m != nil {
		line, _ := strconv.Atoi(m[3])
		sites = append(sites, codeSite{file: filepath.Base(m[2]), fn: m[1][strings.LastIndex(m[1], ".")+1:], line: line})
	}
	return sites
}

// reportSites are one report's frames: the file and line of every frame
// of its four cycle statements' trigger and sent stacks, with the
// frame's function (line grain), and the functions of their innermost
// frames (function grain).
type reportSites struct {
	class string
	lines map[[2]string]string // file, line -> func
	funcs map[[2]string]bool   // file, func
}

func sitesOf(d *core.Deadlock, class string) reportSites {
	r := reportSites{class: class, lines: map[[2]string]string{}, funcs: map[[2]string]bool{}}
	c := d.Cycle
	for _, st := range []*trace.Stmt{c.S1a, c.S1b, c.S2a, c.S2b} {
		for _, loc := range []trace.CodeLoc{st.Trigger, st.Sent} {
			for i, f := range loc.Frames {
				s := frameSite(f)
				r.lines[[2]string{s.file, strconv.Itoa(s.line)}] = s.fn
				if i == 0 {
					r.funcs[[2]string{s.file, s.fn}] = true
				}
			}
		}
	}
	return r
}

// joinVetRun writes one app's section of the golden: per finding kind,
// then the run-only functions no finding of any kind names.
func joinVetRun(t *testing.T, b *strings.Builder, app string, fs []staticlint.Finding, ds []*core.Deadlock, classify func(*core.Deadlock) string) {
	reports := make([]reportSites, len(ds))
	for i, d := range ds {
		reports[i] = sitesOf(d, classify(d))
	}
	byKind := map[string][]staticlint.Finding{}
	for _, f := range fs {
		byKind[f.Kind] = append(byKind[f.Kind], f)
	}
	fmt.Fprintf(b, "\n== %s: %d finding(s), %d report(s)\n", app, len(fs), len(ds))
	namedByAny := map[[2]string]bool{}
	for _, kind := range sortedKeys(byKind) {
		named := map[[2]string]bool{}
		var shared, vetOnly []string
		for _, f := range byKind[kind] {
			sites := findingSites(f)
			grain, classes := "", map[string]bool{}
			for _, s := range sites {
				named[[2]string{s.file, s.fn}] = true
				namedByAny[[2]string{s.file, s.fn}] = true
				for _, r := range reports {
					// A template spliced in from a callee carries the
					// caller's name and the callee's line; the frame on
					// that line names the callee.
					if fn, ok := r.lines[[2]string{s.file, strconv.Itoa(s.line)}]; ok {
						grain, classes[r.class] = "line", true
						named[[2]string{s.file, fn}] = true
						namedByAny[[2]string{s.file, fn}] = true
					} else if r.funcs[[2]string{s.file, s.fn}] {
						grain, classes[r.class] = cmp.Or(grain, "func"), true
					}
				}
			}
			label := sites[0].String()
			if len(sites) > 1 {
				label += " via " + sites[1].String()
			}
			if grain != "" {
				shared = append(shared, fmt.Sprintf("  shared    %s [%s] %s", label, grain, classList(classes)))
				continue
			}
			key := fmt.Sprintf("%s %s %s", app, kind, sites[0])
			word, ok := vetTriage[key]
			if !ok {
				t.Errorf("vet-only site %q has no triage word", key)
			}
			vetOnly = append(vetOnly, fmt.Sprintf("  vet-only  %s %s", label, word))
		}
		runOnly := runOnlySites(reports, named)
		fmt.Fprintf(b, "-- %s: %d shared, %d vet-only, %d run-only\n", kind, len(shared), len(vetOnly), len(runOnly))
		sort.Strings(shared)
		sort.Strings(vetOnly)
		for _, l := range append(append(shared, vetOnly...), runOnly...) {
			b.WriteString(l + "\n")
		}
	}
	runOnly := runOnlySites(reports, namedByAny)
	fmt.Fprintf(b, "-- any kind: %d run-only\n", len(runOnly))
	for _, l := range runOnly {
		b.WriteString(l + "\n")
	}
}

// runOnlySites lists the reports' innermost functions that named lacks,
// each with the classes of the reports it appears in.
func runOnlySites(reports []reportSites, named map[[2]string]bool) []string {
	classes := map[string]map[string]bool{}
	for _, r := range reports {
		for fn := range r.funcs {
			if named[fn] {
				continue
			}
			k := fn[1] + " " + fn[0]
			if classes[k] == nil {
				classes[k] = map[string]bool{}
			}
			classes[k][r.class] = true
		}
	}
	var out []string
	for _, k := range sortedKeys(classes) {
		out = append(out, fmt.Sprintf("  run-only  %s %s", k, classList(classes[k])))
	}
	return out
}

// classList renders a set of report classes, catalog ids in number order
// (d2 before d10) and any other class after them.
func classList(set map[string]bool) string {
	cs := sortedKeys(set)
	num := func(c string) int {
		if n, err := strconv.Atoi(strings.TrimPrefix(c, "d")); err == nil {
			return n
		}
		return math.MaxInt
	}
	sort.SliceStable(cs, func(i, j int) bool { return num(cs[i]) < num(cs[j]) })
	return strings.Join(cs, " ")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
