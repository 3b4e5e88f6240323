package core_test

import (
	"context"
	"testing"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/smt"
	"weseer/internal/trace"
)

// corpusSpecs are the corpora the differential tests of this package run
// over: the Table II apps and a generated one.
var corpusSpecs = []string{"broadleaf", "shopizer", "gen:7,templates=96"}

// corpusTraces opens spec and collects its unit tests.
func corpusTraces(t testing.TB, spec string) (apps.App, []*trace.Trace) {
	t.Helper()
	app, err := apps.Open(spec, apps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
	if err != nil {
		t.Fatal(err)
	}
	return app, traces
}

// corpusFormulas collects spec's unit tests and returns every cycle
// formula phase 3 would build for them.
func corpusFormulas(t *testing.T, spec string) []smt.Expr {
	t.Helper()
	app, traces := corpusTraces(t, spec)
	formulas, err := core.NewAnalyzer(app.Schema()).CycleFormulas(context.Background(), traces)
	if err != nil {
		t.Fatal(err)
	}
	return formulas
}

// TestMemoMatchesDirectOnCorpora runs the memo-vs-direct differential
// over every group of the Table II apps and a generated corpus: what the
// two-level table serves by skeleton key is what the solver says of the
// group's formula itself.
func TestMemoMatchesDirectOnCorpora(t *testing.T) {
	for _, spec := range corpusSpecs {
		app, traces := corpusTraces(t, spec)
		groups := core.CheckMemoAgainstDirect(t, app.Schema(), traces)
		if groups < 100 {
			t.Fatalf("%s: only %d groups — corpus broken?", spec, groups)
		}
		t.Logf("%s: %d groups, memoized verdict = direct verdict", spec, groups)
	}
}

// TestSkeletonKeyRefinesShape is the memo's proof obligation: over every
// group of the Table II apps and the generated corpora, equal skeleton
// keys imply equal smt.Shape keys of the groups' formulas, so a verdict
// served by skeleton key is one served for a renaming of the formula. The
// two keys also partition the groups alike, so level one saves what it
// saved when it keyed on shapes: a run's CanonCalls, its distinct keys,
// are the shapes it met then.
func TestSkeletonKeyRefinesShape(t *testing.T) {
	for _, c := range []struct {
		spec   string
		shapes int
	}{
		{"broadleaf", 156},
		{"shopizer", 124},
		{"gen:7", 136},
		{"gen:7,templates=96", 136},
		{"gen:7,templates=1056", 285},
	} {
		app, traces := corpusTraces(t, c.spec)
		skel, shape := core.SkeletonAndShapeKeys(t, app.Schema(), traces)
		of := map[string]string{}
		shapes := map[string]bool{}
		for i, k := range skel {
			if s, ok := of[k]; ok && s != shape[i] {
				t.Fatalf("%s: group %d shares its skeleton key with a group of another shape", c.spec, i)
			}
			of[k], shapes[shape[i]] = shape[i], true
		}
		if len(of) != len(shapes) {
			t.Errorf("%s: %d groups, %d skeleton keys, %d shapes", c.spec, len(skel), len(of), len(shapes))
		}
		res, err := core.NewAnalyzer(app.Schema()).AnalyzeContext(context.Background(), traces)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.CanonCalls != c.shapes {
			t.Errorf("%s: %d skeleton keys discharged, want the %d shapes", c.spec, res.Stats.CanonCalls, c.shapes)
		}
	}
}

// TestNonSATHitBuildsNoFormula: on a corpus where most groups are memo
// hits, only the skeleton misses and the SAT hits build a formula, at one
// worker and at four; the funnel does not depend on the worker count.
func TestNonSATHitBuildsNoFormula(t *testing.T) {
	app, traces := corpusTraces(t, "gen:7,templates=96")
	one := core.CheckFormulasBuilt(t, app.Schema(), traces, 1)
	four := core.CheckFormulasBuilt(t, app.Schema(), traces, 4)
	if one.MemoHits <= one.CanonCalls || one.WithoutTimings() != four.WithoutTimings() {
		t.Errorf("funnel: %+v on one worker, %+v on four", one.WithoutTimings(), four.WithoutTimings())
	}
}

// BenchmarkDischargeMemoHit measures what deciding a memo hit before
// building the formula is about, the cost of a group whose verdict is
// already in the table, on the generated corpus where most groups are
// such hits: UNSAT hits, which build no formula, and SAT hits, which
// build one to translate the model.
func BenchmarkDischargeMemoHit(b *testing.B) {
	app, traces := corpusTraces(b, "gen:7,templates=96")
	b.Run("unsat", func(b *testing.B) { core.BenchGroupHits(b, app.Schema(), traces, false) })
	b.Run("sat", func(b *testing.B) { core.BenchGroupHits(b, app.Schema(), traces, true) })
}

// BenchmarkSkeletonKey measures the memo's level-one key per group, warm,
// on the Table II apps and the generated corpus.
func BenchmarkSkeletonKey(b *testing.B) {
	for _, spec := range corpusSpecs {
		app, traces := corpusTraces(b, spec)
		b.Run(spec, func(b *testing.B) { core.BenchSkeletonKey(b, app.Schema(), traces) })
	}
}

// BenchmarkRender measures the text report of the Table II apps, the
// deadlocks' sections with their fingerprints and reproducing assignments.
func BenchmarkRender(b *testing.B) {
	for _, spec := range []string{"broadleaf", "shopizer"} {
		app, traces := corpusTraces(b, spec)
		res, err := core.NewAnalyzer(app.Schema()).AnalyzeContext(context.Background(), traces)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(spec, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res.Render()
			}
		})
	}
}
