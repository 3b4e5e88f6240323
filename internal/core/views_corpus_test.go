package core_test

import (
	"fmt"
	"testing"

	"weseer/internal/appgen"
	"weseer/internal/core"
)

// TestViewsMatchRenamedCopies runs the views-vs-copies differential over
// the Table II apps, a generated corpus and one small corpus per planted
// anti-pattern class: reading the recorded traces in place changes no
// formula, report, count, model or fingerprint.
func TestViewsMatchRenamedCopies(t *testing.T) {
	specs := append([]string{}, corpusSpecs...)
	for _, class := range appgen.Classes {
		specs = append(specs, fmt.Sprintf("gen:7,templates=2,modules=1,tables=2,rows=4,classes=%s:1", class))
	}
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			app, traces := corpusTraces(t, spec)
			core.CheckViewsAgainstRenamedCopies(t, app.Schema(), traces)
		})
	}
}
