package core_test

import (
	"fmt"
	"testing"

	"weseer/internal/appgen"
	"weseer/internal/core"
)

// differentialSpecs are corpusSpecs plus one small generated corpus per
// planted anti-pattern class.
func differentialSpecs() []string {
	specs := append([]string{}, corpusSpecs...)
	for _, class := range appgen.Classes {
		specs = append(specs, fmt.Sprintf("gen:7,templates=2,modules=1,tables=2,rows=4,classes=%s:1", class))
	}
	return specs
}

// TestViewsMatchRenamedCopies runs the views-vs-copies differential over
// the Table II apps, a generated corpus and one small corpus per planted
// anti-pattern class: reading the recorded traces in place changes no
// formula, report, count, model or fingerprint.
func TestViewsMatchRenamedCopies(t *testing.T) {
	for _, spec := range differentialSpecs() {
		t.Run(spec, func(t *testing.T) {
			app, traces := corpusTraces(t, spec)
			core.CheckViewsAgainstRenamedCopies(t, app.Schema(), traces)
		})
	}
}

// TestEdgeTemplatesMatchDirectBuild runs the templates-vs-copies
// differential over the same corpora: every C-edge condition renamed from
// a per-template build is the one built from the prefixed statements. On
// the generated corpus the templates must actually be shared.
func TestEdgeTemplatesMatchDirectBuild(t *testing.T) {
	for _, spec := range differentialSpecs() {
		t.Run(spec, func(t *testing.T) {
			app, traces := corpusTraces(t, spec)
			edges, templates := core.CheckEdgeTemplatesMatchDirectBuild(t, app.Schema(), traces)
			if spec == "gen:7,templates=96" && 2*templates > edges {
				t.Errorf("%d C-edges from %d templates: the templates are hardly shared", edges, templates)
			}
			t.Logf("%d C-edges from %d templates", edges, templates)
		})
	}
}

// TestFineAllocs is phase 3's allocation ceiling: heap allocations per
// solved group on gen:7,templates=96 at one worker. An UNSAT or UNKNOWN
// memo hit builds no formula, so a lost skeleton hit — a group whose key
// misses although its formula's shape is known — costs a formula, its
// canonicalization and a level-two probe, and breaks the ceiling: 98
// measured plus 10 % (130 with every skeleton lookup missing).
// TestEdgeTemplatesMatchDirectBuild catches a lost C-edge template hit.
func TestFineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const ceiling = 108
	app, traces := corpusTraces(t, "gen:7,templates=96")
	if got := core.FineAllocsPerGroup(t, app.Schema(), traces); got > ceiling {
		t.Errorf("phase 3 allocates %.0f times per solved group, ceiling %d", got, ceiling)
	} else {
		t.Logf("phase 3 allocates %.0f times per solved group (ceiling %d)", got, ceiling)
	}
}

// TestEnumAgainstNaiveOnCorpora holds the indexed enumeration over dense
// ids to the naive oracle, which groups cycles by their rendered keys, on
// the Table II apps and a generated corpus.
func TestEnumAgainstNaiveOnCorpora(t *testing.T) {
	for _, spec := range corpusSpecs {
		t.Run(spec, func(t *testing.T) {
			app, traces := corpusTraces(t, spec)
			core.CheckEnumAgainstNaive(t, app.Schema(), traces)
		})
	}
}

// TestEnumAllocs is the allocation ceiling of what precedes phase 3's
// workers — flatten, phases 1–2 and settle — per phase-1 survivor on
// gen:7,templates=96 at one worker: 7.0 measured (7.7 while each chain's
// first cycle was an allocation of its own, 7.9 while CheckStmt cloned its
// predicates) plus 10 %. A per-pair or per-cycle map, string or statement
// copy breaks it.
func TestEnumAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const ceiling = 7.7
	app, traces := corpusTraces(t, "gen:7,templates=96")
	if got := core.EnumAllocsPerPair(t, app.Schema(), traces); got > ceiling {
		t.Errorf("enumeration and settle allocate %.1f times per surviving pair, ceiling %.1f", got, ceiling)
	} else {
		t.Logf("enumeration and settle allocate %.1f times per surviving pair (ceiling %.1f)", got, ceiling)
	}
}

// BenchmarkEnumerate1056 times what precedes phase 3's workers on the
// 1,056-template generated corpus: flatten with its schema check, phases
// 1–2 and settle, at one worker.
func BenchmarkEnumerate1056(b *testing.B) {
	app, traces := corpusTraces(b, "gen:7,templates=1056")
	b.ReportAllocs()
	b.ResetTimer()
	var cycles int
	for range b.N {
		cycles = core.EnumSettle(b, app.Schema(), traces).CoarseCycles
	}
	b.ReportMetric(float64(cycles), "cycles")
}
