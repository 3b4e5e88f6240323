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
// canonicalization and a level-two probe, and breaks the ceiling: 114
// measured plus 10 % (144 with every skeleton lookup missing).
// TestEdgeTemplatesMatchDirectBuild catches a lost C-edge template hit.
func TestFineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const ceiling = 125
	app, traces := corpusTraces(t, "gen:7,templates=96")
	if got := core.FineAllocsPerGroup(t, app.Schema(), traces); got > ceiling {
		t.Errorf("phase 3 allocates %.0f times per solved group, ceiling %d", got, ceiling)
	} else {
		t.Logf("phase 3 allocates %.0f times per solved group (ceiling %d)", got, ceiling)
	}
}
