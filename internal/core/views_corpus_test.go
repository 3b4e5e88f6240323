package core_test

import (
	"fmt"
	"testing"

	"weseer/internal/appgen"
	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
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
			app, err := apps.Open(spec, apps.Options{})
			if err != nil {
				t.Fatal(err)
			}
			traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
			if err != nil {
				t.Fatal(err)
			}
			core.CheckViewsAgainstRenamedCopies(t, app.Schema(), traces)
		})
	}
}
