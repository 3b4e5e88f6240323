package apps

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/smt"
	"weseer/internal/staticlint"
	"weseer/internal/trace"
)

// update rewrites the golden files instead of diffing against them.
// Refresh deliberately (go test ./internal/apps -run Goldens -update)
// and review the diff: the goldens pin Table II report bytes.
var update = flag.Bool("update", false, "rewrite the golden report files")

// TestRegistryNames: Usage lists the three families Open knows, one line
// each, sorted, and an unknown name's error lists the same three.
func TestRegistryNames(t *testing.T) {
	want := []string{"broadleaf", "gen", "shopizer"}
	var got []string
	for _, line := range strings.Split(strings.TrimSuffix(Usage("  "), "\n"), "\n") {
		if !strings.HasPrefix(line, "  ") {
			t.Errorf("Usage line %q is not indented by the prefix", line)
		}
		got = append(got, strings.Fields(line)[0])
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Usage lists %v, want %v", got, want)
	}
	if _, err := Open("nosuchapp", Options{}); err == nil || !strings.Contains(err.Error(), "known: broadleaf, gen, shopizer") {
		t.Errorf("Open(nosuchapp): err = %v, want it to list the known apps", err)
	}
}

func TestOpenErrors(t *testing.T) {
	cases := []struct {
		spec string
		opt  Options
	}{
		{spec: "nosuchapp"},
		{spec: "broadleaf:extra"},
		{spec: "gen:notanumber"},
		{spec: "broadleaf", opt: Options{Apply: []string{"f9"}}},
		{spec: "shopizer", opt: Options{Apply: []string{"f1"}}},
		{spec: "gen:1,classes=f1:1", opt: Options{Apply: []string{"f9"}}},
	}
	for _, c := range cases {
		if _, err := Open(c.spec, c.opt); err == nil {
			t.Errorf("Open(%q, %+v): expected error", c.spec, c.opt)
		}
	}
}

// TestOpenFixNames: every family resolves Apply against its own fixes — a
// model app's catalog, a corpus's classes planted at least once — so an
// unknown name and a class the app does not have fail, while "all" alone
// or next to a name opens. classes=f1:0 lists f1 without planting it.
func TestOpenFixNames(t *testing.T) {
	const gen = "gen:1,templates=2,modules=1,tables=2,rows=4,classes=f1:0+f2:1"
	for _, c := range []struct {
		spec  string
		apply []string
		ok    bool
	}{
		{"broadleaf", []string{"f12"}, false},
		{"broadleaf", []string{"f10"}, false},
		{"broadleaf", []string{"all"}, true},
		{"broadleaf", []string{"all", "f2"}, true},
		{"shopizer", []string{"fx"}, false},
		{"shopizer", []string{"f3"}, false},
		{"shopizer", []string{"all"}, true},
		{"shopizer", []string{"f10", "all"}, true},
		{gen, []string{"f99"}, false},
		{gen, []string{"f1"}, false},
		{gen, []string{"all"}, true},
		{gen, []string{"all", "f2"}, true},
	} {
		_, err := Open(c.spec, Options{Apply: c.apply})
		if (err == nil) != c.ok {
			t.Errorf("Open(%q, Apply %q): err = %v, want ok = %v", c.spec, c.apply, err, c.ok)
		}
	}
}

// TestApplyAllListsEveryFix: Apply "all" is every fix listed by name — the
// same diagnosis, byte for byte, and not the unfixed one.
func TestApplyAllListsEveryFix(t *testing.T) {
	for _, c := range []struct {
		spec  string
		fixes []string
	}{
		{"broadleaf", []string{"f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8"}},
		{"shopizer", []string{"f9", "f10", "f11"}},
		{"gen:7,templates=12,modules=3,tables=4,rows=6", []string{"f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "f10", "f11"}},
	} {
		report := func(apply ...string) string {
			app, err := Open(c.spec, Options{Apply: apply})
			if err != nil {
				t.Fatal(err)
			}
			return renderApp(t, app)
		}
		all := report("all")
		if listed := report(c.fixes...); all != listed {
			t.Errorf("%s: Apply all and Apply %v diagnose differently", c.spec, c.fixes)
		}
		if all == report() {
			t.Errorf("%s: Apply all diagnoses the unfixed app", c.spec)
		}
	}
}

func TestOpenModelAppsAndSourcer(t *testing.T) {
	for _, name := range []string{"broadleaf", "shopizer"} {
		app, err := Open(name, Options{})
		if err != nil {
			t.Fatalf("Open(%s): %v", name, err)
		}
		if app.Name() != name {
			t.Errorf("Name() = %q, want %q", app.Name(), name)
		}
		if app.Schema() == nil || app.DB() == nil || len(app.UnitTests()) == 0 {
			t.Errorf("%s: incomplete App surface", name)
		}
		src, ok := app.(Sourcer)
		if !ok {
			t.Fatalf("%s: model app should implement Sourcer", name)
		}
		if want := filepath.Join("internal", "apps", name); src.SourceDir() != want {
			t.Errorf("%s: SourceDir() = %q, want %q", name, src.SourceDir(), want)
		}
	}
	gen, err := Open("gen:3,templates=4,modules=1,tables=3,rows=4,nest=1,classes=none", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := gen.(Sourcer); ok {
		t.Error("generated apps have no source directory; gen must not implement Sourcer")
	}
	if !strings.HasPrefix(gen.Name(), "gen:3,") {
		t.Errorf("gen Name() = %q", gen.Name())
	}
}

// TestFlowsFollowUnitTests: a model app's load client makes the unit tests'
// calls, under their trace names and in their order, one pass after
// another, unfixed and with every fix.
func TestFlowsFollowUnitTests(t *testing.T) {
	for _, spec := range []string{"broadleaf", "shopizer"} {
		for _, apply := range [][]string{nil, {"all"}} {
			app, err := Open(spec, Options{Apply: apply})
			if err != nil {
				t.Fatal(err)
			}
			tests := app.UnitTests()
			next := app.Flow()(1, rand.New(rand.NewSource(42)))
			e := concolic.New(concolic.ModeOff)
			for i := 0; i < 2*len(tests); i++ {
				name, err := next()(e)
				if err != nil {
					t.Fatalf("%s %v: step %d (%s): %v", spec, apply, i, name, err)
				}
				if want := tests[i%len(tests)].Name; name != want {
					t.Errorf("%s %v: step %d is %s, want %s", spec, apply, i, name, want)
				}
			}
		}
	}
}

// TestFlowRegistersAgain: the step after a Register that did not succeed
// (here: never ran) is Register again, for a new customer, and it succeeds —
// not a step that cannot succeed for want of a customer.
func TestFlowRegistersAgain(t *testing.T) {
	for _, spec := range []string{"broadleaf", "shopizer"} {
		app, err := Open(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		next := app.Flow()(1, rand.New(rand.NewSource(42)))
		next()
		if name, err := next()(concolic.New(concolic.ModeOff)); name != "Register" || err != nil {
			t.Errorf("%s: the step after an unrun Register is %s (err %v), want a Register that succeeds", spec, name, err)
		}
	}
}

// renderApp reproduces the pre-refactor report rendering the goldens
// were captured with: timing-free funnel, sorted per-class counts, and
// each deadlock's full rendered form.
func renderApp(t *testing.T, app App) string {
	t.Helper()
	traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewAnalyzer(app.Schema()).AnalyzeContext(context.Background(), traces)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	// The goldens predate Stats.CanonCalls (the memo table's shape level)
	// and Stats.CanonTime, and outlive the static prescreen's pair
	// counters, which they print as the zeros the analysis always left
	// there; TestFunnelInvariants pins CanonCalls, and the captured funnel
	// line stays as it was.
	funnel := fmt.Sprintf("funnel: %+v\n", res.Stats.WithoutTimings())
	funnel = strings.Replace(funnel, fmt.Sprintf(" CanonCalls:%d", res.Stats.CanonCalls), "", 1)
	funnel = regexp.MustCompile(` GroupsSolved:\d+`).ReplaceAllString(funnel, "$0 PrescreenPairs:0 PrescreenPairsPruned:0")
	b.WriteString(strings.Replace(funnel, " CanonTime:0s", "", 1))
	counts := map[string]int{}
	for _, d := range res.Deadlocks {
		counts[app.Classify(d)]++
	}
	var ids []string
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "class %q: %d report(s)\n", id, counts[id])
	}
	for i, d := range res.Deadlocks {
		fmt.Fprintf(&b, "--- deadlock %d class=%q\n%s", i+1, app.Classify(d), d.Render())
	}
	return b.String()
}

// TestTableIIGoldens pins the registry-opened model apps to the reports
// captured before the registry existed: the refactor must be
// byte-neutral for Table II.
func TestTableIIGoldens(t *testing.T) {
	for _, name := range []string{"broadleaf", "shopizer"} {
		t.Run(name, func(t *testing.T) {
			app, err := Open(name, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := renderApp(t, app)
			goldenPath := filepath.Join("testdata", "golden_"+name+".txt")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				gotPath := filepath.Join(t.TempDir(), "got.txt")
				os.WriteFile(gotPath, []byte(got), 0o644)
				t.Errorf("report differs from %s (got: %s)", goldenPath, gotPath)
			}
		})
	}
}

// TestTableIIInvariants guards the headline funnel numbers: the 18/18
// catalog coverage and the 326 = 226+100 group-discharge split across
// both model apps.
func TestTableIIInvariants(t *testing.T) {
	classes := map[string]bool{}
	groups, calls, memo := 0, 0, 0
	for _, name := range []string{"broadleaf", "shopizer"} {
		app, err := Open(name, Options{})
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
		for _, d := range res.Deadlocks {
			if id := app.Classify(d); strings.HasPrefix(id, "d") {
				classes[id] = true
			}
		}
		groups += res.Stats.GroupsSolved
		calls += res.Stats.SolverCalls
		memo += res.Stats.MemoHits
	}
	if len(classes) != 18 {
		t.Errorf("Table II catalog coverage = %d/18 classes", len(classes))
	}
	if groups != 326 {
		t.Errorf("group discharges = %d, want 326", groups)
	}
	if calls+memo != groups {
		t.Errorf("solver calls (%d) + memo hits (%d) != groups (%d)", calls, memo, groups)
	}
	if memo != 100 {
		t.Errorf("memo hits = %d, want 100", memo)
	}
}

// TestCanonicalOrderOnDemand: the analysis computes no canonical lock
// order — that is staticlint.CanonicalizeTraces, for whoever prints one —
// and a report with the order attached is byte-identical at any phase-3
// worker count, the order being a function of the traces alone. On
// Shopizer it carries the inversion behind the paper's f10/f11 fixes:
// Checkout prices the cart's product rows ascending but commits them
// descending, so the order must flag that row pair, with evidence.
func TestCanonicalOrderOnDemand(t *testing.T) {
	for _, name := range []string{"broadleaf", "shopizer"} {
		app, err := Open(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
		if err != nil {
			t.Fatal(err)
		}
		co := staticlint.CanonicalizeTraces(traces, app.Schema())
		if len(co.Order) == 0 || co.Templates == 0 || co.Edges == 0 {
			t.Errorf("%s: degenerate canonical order: %d nodes, %d templates, %d edges",
				name, len(co.Order), co.Templates, co.Edges)
		}
		var serial string
		for _, workers := range []int{1, 4, 16} {
			res, err := core.NewAnalyzer(app.Schema(), core.WithParallelism(workers)).AnalyzeContext(context.Background(), traces)
			if err != nil {
				t.Fatal(err)
			}
			if res.CanonicalOrder != nil {
				t.Errorf("%s: AnalyzeContext attached a canonical order", name)
			}
			res.Stats = res.Stats.WithoutTimings()
			res.CanonicalOrder = co
			if got := res.Render(); workers == 1 {
				serial = got
			} else if got != serial {
				t.Errorf("%s: report with the canonical order differs at parallelism %d", name, workers)
			}
		}
		if name != "shopizer" {
			continue
		}
		s := co.SuggestionFor("Product[i:1]", "Product[i:2]")
		if s == nil {
			t.Fatalf("shopizer: canonical order misses the f10/f11 Product row-order suggestion; got %+v", co.Suggestions)
		}
		if s.Violators == 0 || s.Supporters == 0 || len(s.Sites) == 0 {
			t.Errorf("shopizer: row-order suggestion lacks evidence: %+v", s)
		}
	}
}

// TestParentTraceFileStillAnalyses: a trace file written before path
// conditions lost their code location (every one carries a "loc" key the
// decoder no longer knows) decodes, and analyses to the report the commit
// that wrote it produced — internal/trace/testdata/parent_with_loc.json
// is `weseer collect` of the spec below at that commit, the golden its
// report without timings.
func TestParentTraceFileStillAnalyses(t *testing.T) {
	const fixture = "../trace/testdata/parent_with_loc"
	data, err := os.ReadFile(fixture + ".json")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"loc": {`) {
		t.Fatal("fixture carries no path-condition location: not a pre-change trace file")
	}
	var traces []*trace.Trace
	if err := json.Unmarshal(data, &traces); err != nil {
		t.Fatal(err)
	}
	app, err := Open("gen:5,templates=2,modules=1,tables=3,rows=4,classes=f2:1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewAnalyzer(app.Schema(), core.WithParallelism(1)).AnalyzeContext(context.Background(), traces)
	if err != nil {
		t.Fatal(err)
	}
	res.Stats = res.Stats.WithoutTimings()
	want, err := os.ReadFile(fixture + ".report.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Render(); got != string(want) {
		t.Errorf("report of the parent's trace file differs from its golden:\n%s", got)
	}
}

// collectChildEnv makes a re-executed test binary print the hash of its
// own broadleaf collection and exit (TestBroadleafCollectIsReproducible).
const collectChildEnv = "WESEER_COLLECT_CHILD"

func collectHash(t *testing.T, spec string) string {
	t.Helper()
	app, err := Open(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(traces)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

// TestBroadleafCollectIsReproducible: the encoded trace batch is the same
// bytes twice in one process and once more in a fresh one. Checkout joins
// three tables, and hydrating a join's aliases in map order used to
// number the entity caches — and order the Alg. 1 path conditions —
// differently from run to run.
func TestBroadleafCollectIsReproducible(t *testing.T) {
	child := os.Getenv(collectChildEnv) != ""
	// Test frames count as application code in trigger locations, so every
	// collection, the child's included, runs from this one line. Map
	// iteration order is drawn per range statement: a handful of repeats
	// is enough to catch a map-order dependence.
	var hashes []string
	for i := 0; i < 5 && !(child && i > 0); i++ {
		hashes = append(hashes, collectHash(t, "broadleaf"))
	}
	if child {
		fmt.Printf("hash=%s\n", hashes[0])
		return
	}
	for i, h := range hashes {
		if h != hashes[0] {
			t.Fatalf("collection %d in this process differs: %s vs %s", i+1, h, hashes[0])
		}
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestBroadleafCollectIsReproducible$", "-test.v")
	cmd.Env = append(os.Environ(), collectChildEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child process: %v\n%s", err, out)
	}
	_, rest, ok := strings.Cut(string(out), "hash=")
	if !ok {
		t.Fatalf("child printed no hash:\n%s", out)
	}
	if got, _, _ := strings.Cut(rest, "\n"); got != hashes[0] {
		t.Errorf("child process collected %s, this process %s", got, hashes[0])
	}
}

// TestCollectedInputsRoundTrip: traces decoded from a broadleaf collection's
// JSON carry the inputs they were collected with, concrete values included.
func TestCollectedInputsRoundTrip(t *testing.T) {
	app, err := Open("broadleaf", Options{})
	if err != nil {
		t.Fatal(err)
	}
	traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(traces)
	if err != nil {
		t.Fatal(err)
	}
	var back []*trace.Trace
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	inputs := 0
	for i, tr := range traces {
		inputs += len(tr.Inputs)
		if !reflect.DeepEqual(back[i].Inputs, tr.Inputs) {
			t.Errorf("%s: decoded inputs %+v, collected %+v", tr.API, back[i].Inputs, tr.Inputs)
		}
	}
	if inputs == 0 {
		t.Fatal("the collection has no inputs; the check checked nothing")
	}
}

// TestReportedModelsSatisfyFormulas: every report's reproducing assignment
// satisfies the formula it was solved from, on the Table II apps and the
// generated corpus at both scales, with one phase-3 worker and with four.
func TestReportedModelsSatisfyFormulas(t *testing.T) {
	for _, spec := range []string{"broadleaf", "shopizer", "gen:7,templates=96", "gen:7,templates=1056"} {
		app, err := Open(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			res, err := core.NewAnalyzer(app.Schema(), core.WithParallelism(par)).AnalyzeContext(context.Background(), traces)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Deadlocks) == 0 {
				t.Fatalf("%s: no reports; the check checked nothing", spec)
			}
			bad := 0
			for _, d := range res.Deadlocks {
				if d.Model == nil || !smt.Eval(d.Formula, d.Model).B {
					bad++
				}
			}
			if bad > 0 {
				t.Errorf("%s at parallelism %d: %d of %d reported models do not satisfy their formula", spec, par, bad, len(res.Deadlocks))
			}
		}
	}
}

// TestConcretePlansPinned pins the `weseer run -plans` path, the only one
// whose edge conditions depend on the recorded execution plans: per model
// app, the digest of the report with its one timed line made timing-free
// (as the benchmark's stableReport digests it) and the timing-free funnel,
// both recorded before the edge conditions were memoized per template.
func TestConcretePlansPinned(t *testing.T) {
	want := map[string]struct{ digest, funnel string }{
		"broadleaf": {"9e70a1c3593ade62", "{Traces:7 Pairs:323 PairsAfterPhase1:17 CoarseCycles:332 IndexProbes:164 LockFiltered:30 GroupsSolved:199 PrescreenSaved:0 Fingerprints:180 SolverCalls:102 MemoHits:97 CanonCalls:156 SolverSAT:180 SolverUNSAT:19 SolverUnknown:0 Engine:{Atoms:2258 Clauses:4447 Decisions:660 Conflicts:132 TheoryCalls:765 Propagations:2828 LearnedClauses:120 Backjumps:44} Parallelism:0 SolverTime:0s CanonTime:0s EnumTime:0s FineTime:0s}"},
		"shopizer":  {"2249c6a8023f55bb", "{Traces:6 Pairs:192 PairsAfterPhase1:16 CoarseCycles:826 IndexProbes:88 LockFiltered:0 GroupsSolved:127 PrescreenSaved:0 Fingerprints:65 SolverCalls:124 MemoHits:3 CanonCalls:124 SolverSAT:65 SolverUNSAT:62 SolverUnknown:0 Engine:{Atoms:2388 Clauses:6572 Decisions:135 Conflicts:171 TheoryCalls:259 Propagations:3556 LearnedClauses:109 Backjumps:7} Parallelism:0 SolverTime:0s CanonTime:0s EnumTime:0s FineTime:0s}"},
	}
	for _, name := range []string{"broadleaf", "shopizer"} {
		app, err := Open(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.NewAnalyzer(app.Schema(), core.WithConcretePlans()).AnalyzeContext(context.Background(), traces)
		if err != nil {
			t.Fatal(err)
		}
		stable := strings.Replace(res.Render(), res.Stats.Render(), res.Stats.WithoutTimings().Render(), 1)
		sum := sha256.Sum256([]byte(stable))
		digest := fmt.Sprintf("%x", sum[:8])
		funnel := fmt.Sprintf("%+v", res.Stats.WithoutTimings())
		if digest != want[name].digest || funnel != want[name].funnel {
			t.Errorf("%s -plans:\ndigest %s, want %s\nfunnel %s\nwant   %s", name, digest, want[name].digest, funnel, want[name].funnel)
		}
	}
}
