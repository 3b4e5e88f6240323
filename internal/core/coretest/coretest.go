// Package coretest is test support shared by the packages that drive the
// analyzer from their tests.
package coretest

import (
	"context"
	"testing"

	"weseer/internal/core"
	"weseer/internal/schema"
	"weseer/internal/trace"
)

// Analyze runs the full diagnosis and fails the test on an analysis error.
func Analyze(t testing.TB, scm *schema.Schema, traces []*trace.Trace, opts ...core.Option) *core.Result {
	t.Helper()
	res, err := core.NewAnalyzer(scm, opts...).AnalyzeContext(context.Background(), traces)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
