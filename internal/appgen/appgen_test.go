package appgen

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/core/coretest"
	"weseer/internal/minidb"
	"weseer/internal/trace"
)

func TestSpecRoundTrip(t *testing.T) {
	cases := []string{
		"7",
		"7,templates=12,modules=3,tables=4,rows=6,hot=80,nest=1,classes=all",
		"42,classes=f1:2+f9:1",
		"-3,classes=none",
	}
	for _, spec := range cases {
		cfg, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		canon := cfg.Spec()
		cfg2, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", canon, err)
		}
		if got := cfg2.Spec(); got != canon {
			t.Errorf("spec %q: canonical form not a fixed point: %q -> %q", spec, canon, got)
		}
	}
	for _, bad := range []string{"", "x", "7,tables", "7,tables=-1", "7,bogus=3", "7,classes=f99"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q): expected error", bad)
		}
	}
}

// generate builds the application named "gen:"+spec with the given
// classes fixed.
func generate(t *testing.T, spec string, fixed ...string) *App {
	t.Helper()
	cfg, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(cfg, minidb.Config{}, fixed)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// collect runs the app's unit tests and returns the traces.
func collect(t *testing.T, a *App) []*trace.Trace {
	t.Helper()
	traces, err := appkit.Collect(a.UnitTests(), concolic.ModeConcolic)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	return traces
}

// render produces the canonical report text used for byte-identity
// checks: the timing-free funnel, sorted class counts, and every
// deadlock's rendered form.
func render(a *App, res *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "funnel: %+v\n", res.Stats.WithoutTimings())
	counts := map[string]int{}
	for _, d := range res.Deadlocks {
		counts[a.Classify(d)]++
	}
	var classes []string
	for cl := range counts {
		classes = append(classes, cl)
	}
	sort.Strings(classes)
	for _, cl := range classes {
		fmt.Fprintf(&b, "class %q: %d report(s)\n", cl, counts[cl])
	}
	for i, d := range res.Deadlocks {
		fmt.Fprintf(&b, "--- deadlock %d class=%q\n%s", i, a.Classify(d), d.Render())
	}
	return b.String()
}

const testSpec = "7,templates=12,modules=3,tables=4,rows=6,hot=80,nest=2,classes=all"

func TestDeterminismAcrossBuildsAndParallelism(t *testing.T) {
	a1, a2 := generate(t, testSpec), generate(t, testSpec)
	if a1.Name() != "gen:"+a1.Config().Spec() {
		t.Fatalf("Name() = %q, want gen:%s", a1.Name(), a1.Config().Spec())
	}
	// Two builds of the spec, and a third from the canonical name, collect
	// the same trace bytes. Recorded frames reach this test's own lines, so
	// every build is collected from the one call site in the loop.
	var traces [][]*trace.Trace
	var encoded []string
	for _, a := range []*App{a1, a2, generate(t, strings.TrimPrefix(a1.Name(), "gen:"))} {
		tr := collect(t, a)
		data, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		traces, encoded = append(traces, tr), append(encoded, string(data))
	}
	if encoded[1] != encoded[0] {
		t.Fatalf("same spec collected different traces")
	}
	if encoded[2] != encoded[0] {
		t.Fatalf("canonical name did not reproduce the traces")
	}

	var reports []string
	for i, par := range []int{1, 4, 16} {
		app := []*App{a1, a2}[i%2] // interleave the two builds: app identity must not matter
		res := coretest.Analyze(t, app.Schema(), traces[i%2], core.WithParallelism(par))
		reports = append(reports, render(app, res))
	}
	for i := 1; i < len(reports); i++ {
		if reports[i] != reports[0] {
			t.Fatalf("report at parallelism %d differs from parallelism 1", []int{1, 4, 16}[i])
		}
	}
}

func TestPlantedClassesAllDiagnosedNoSpurious(t *testing.T) {
	a := generate(t, testSpec)
	res := coretest.Analyze(t, a.Schema(), collect(t, a))
	if len(res.Deadlocks) == 0 {
		t.Fatal("no deadlocks diagnosed on a corpus with all classes planted")
	}
	got := map[string]int{}
	for _, d := range res.Deadlocks {
		got[a.Classify(d)]++
	}
	for _, cc := range a.Config().Classes {
		if got[cc.Class] == 0 {
			t.Errorf("planted class %s: no deadlock diagnosed", cc.Class)
		}
	}
	if n := got[""]; n > 0 {
		for _, d := range res.Deadlocks {
			if a.Classify(d) == "" {
				t.Logf("spurious:\n%s", d.Render())
			}
		}
		t.Errorf("%d deadlock(s) on filler tables — fillers must be inert", n)
	}
}

func TestNoClassesMeansNoDeadlocks(t *testing.T) {
	a := generate(t, "11,templates=10,modules=2,tables=4,rows=4,hot=100,nest=1,classes=none")
	res := coretest.Analyze(t, a.Schema(), collect(t, a))
	if len(res.Deadlocks) != 0 {
		for _, d := range res.Deadlocks {
			t.Logf("unexpected:\n%s", d.Render())
		}
		t.Fatalf("filler-only corpus diagnosed %d deadlock(s), want 0", len(res.Deadlocks))
	}
	if res.Stats.GroupsSolved == 0 {
		t.Error("filler-only corpus produced no solver groups — hubs are not generating work")
	}
}
