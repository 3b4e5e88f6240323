package fixapply_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"weseer/internal/appgen"
	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/fixapply"
	"weseer/internal/minidb"
	"weseer/internal/staticlint"
	"weseer/internal/trace"
)

// genClasses are the planted anti-pattern classes the corpus generator
// knows how to fix; the property sweep rotates through them.
var genClasses = []string{"f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "f10", "f11"}

// upsertClasses rewrite statements (SELECT+write → UPSERT), so the
// statement multiset legitimately changes; the preserved property is
// the net database effect instead.
var upsertClasses = map[string]bool{"f1": true, "f2": true}

// generate builds the application named "gen:"+spec, fresh database
// included, with the given classes fixed.
func generate(t *testing.T, spec string, fixed ...string) *appgen.App {
	t.Helper()
	cfg, err := appgen.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := appgen.New(cfg, minidb.Config{}, fixed)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func analyzeGen(t *testing.T, a *appgen.App) *core.Result {
	t.Helper()
	traces, err := appkit.Collect(a.UnitTests(), concolic.ModeConcolic)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewAnalyzer(a.Schema()).AnalyzeContext(context.Background(), traces)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// stmtMultiset summarizes a template's statements as a sorted
// "<verb> <tables>" count map, keyed by API name. Reorders, probe-read
// extraction, and flush barriers move statements between transactions
// and sessions but must not add, drop, or retarget any read or write.
func stmtMultiset(traces []*trace.Trace) map[string]map[string]int {
	out := map[string]map[string]int{}
	for _, tr := range traces {
		m := out[tr.API]
		if m == nil {
			m = map[string]int{}
			out[tr.API] = m
		}
		for _, txn := range tr.Txns {
			for _, s := range txn.Stmts {
				verb := strings.ToUpper(strings.Fields(s.SQL)[0])
				tabs := s.Parsed.Tables()
				sort.Strings(tabs)
				m[verb+" "+strings.Join(tabs, ",")]++
			}
		}
	}
	return out
}

// rowsSnapshot renders every table's committed rows for net-effect
// comparison.
func rowsSnapshot(a *appgen.App) string {
	var b strings.Builder
	for _, tbl := range a.Schema().Tables() {
		fmt.Fprintf(&b, "%s: %v\n", tbl.Name, a.DB().TableRows(tbl.Name))
	}
	return b.String()
}

// runConcrete executes every unit test concretely (the fixture inputs)
// so the database reaches the post-suite committed state.
func runConcrete(t *testing.T, a *appgen.App) {
	t.Helper()
	tests := a.UnitTests()
	if _, err := appkit.Collect(tests, concolic.ModeOff); err != nil {
		t.Fatalf("%s: concrete run: %v", a.Name(), err)
	}
}

// TestFixPropertiesOverCorpora is the fixapply property sweep: for 220
// seeded generated corpora (each planting one fixable class), applying
// the planned fix must
//
//  1. preserve the workload — the fixed template keeps the unfixed
//     template's read/write statement multiset (reorder-family fixes)
//     or its net database effect (UPSERT rewrites), and
//  2. shrink the diagnosis — re-analysis of the fixed corpus reports a
//     strictly smaller deadlock set that excludes every fingerprint
//     the fix claimed to eliminate.
func TestFixPropertiesOverCorpora(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes 220 corpora twice; skip in -short")
	}
	planned := 0
	for seed := 1; seed <= 220; seed++ {
		class := genClasses[seed%len(genClasses)]
		spec := fmt.Sprintf("%d,templates=2,modules=1,tables=2,rows=4,classes=%s:1", seed, class)
		app := generate(t, spec)
		res := analyzeGen(t, app)
		plan := fixapply.Plan(app, res)
		var fix *fixapply.Fix
		for i := range plan {
			if plan[i].Name == class {
				fix = &plan[i]
			}
		}
		if fix == nil {
			// The planted instance did not produce a diagnosable cycle at
			// this seed (e.g. the planted templates never pair); nothing
			// to verify.
			continue
		}
		planned++

		fixed := generate(t, spec, class)
		fres := analyzeGen(t, fixed)

		// Property 2: strictly smaller, targeted fingerprints gone.
		if len(fres.Deadlocks) >= len(res.Deadlocks) {
			t.Errorf("seed %d (%s): fixed corpus reports %d deadlocks, unfixed %d — not strictly smaller",
				seed, class, len(fres.Deadlocks), len(res.Deadlocks))
		}
		remaining := map[string]bool{}
		for _, d := range fres.Deadlocks {
			remaining[d.Fingerprint()] = true
		}
		for _, fp := range fix.Fingerprints {
			if remaining[fp] {
				t.Errorf("seed %d (%s): targeted fingerprint %s survives the fix", seed, class, fp)
			}
		}

		// Property 1: workload preserved.
		if upsertClasses[class] {
			base, refixed := generate(t, spec), generate(t, spec, class) // fresh DBs for both variants
			runConcrete(t, base)
			runConcrete(t, refixed)
			if got, want := rowsSnapshot(refixed), rowsSnapshot(base); got != want {
				t.Errorf("seed %d (%s): net effect differs after UPSERT rewrite:\nunfixed:\n%swant fixed identical, got:\n%s",
					seed, class, want, got)
			}
		} else {
			traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
			if err != nil {
				t.Fatal(err)
			}
			ftraces, err := appkit.Collect(fixed.UnitTests(), concolic.ModeConcolic)
			if err != nil {
				t.Fatal(err)
			}
			got, want := stmtMultiset(ftraces), stmtMultiset(traces)
			for api, wm := range want {
				gm := got[api]
				for k, n := range wm {
					if gm[k] != n {
						t.Errorf("seed %d (%s): API %s statement %q: fixed count %d, unfixed %d",
							seed, class, api, k, gm[k], n)
					}
				}
				for k, n := range gm {
					if wm[k] == 0 && n > 0 {
						t.Errorf("seed %d (%s): API %s gained statement %q ×%d", seed, class, api, k, n)
					}
				}
			}
		}
	}
	t.Logf("planned fixes verified on %d/220 corpora", planned)
	if planned < 150 {
		t.Errorf("only %d/220 corpora produced a diagnosable planted cycle — the sweep lost its teeth", planned)
	}
}

// TestShopizerReordersCarrySuggestions: a fix's suggestion rank is the
// canonical order's Rank over the fix's templates. Shopizer's three fixes
// are all row reorders, so each is backed by a suggestion.
func TestShopizerReordersCarrySuggestions(t *testing.T) {
	app, err := apps.Open("shopizer", apps.Options{})
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
	co := staticlint.CanonicalizeTraces(traces, app.Schema())
	fixes := fixapply.Plan(app, res)
	ranks := map[string]int{}
	for i, f := range fixes {
		fixes[i].SuggestionRank = co.Rank(f.APIs)
		ranks[f.Name] = fixes[i].SuggestionRank
	}
	for _, name := range []string{"f9", "f10", "f11"} {
		if ranks[name] == 0 {
			t.Errorf("fix %s carries no reorder suggestion rank; plan:\n%s", name, fixapply.Render(fixes))
		}
	}
}
