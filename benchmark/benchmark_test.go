package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The diagnosis workloads re-execute the running binary as their child;
// under `go test` that binary is the test binary.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

func tinyConfig(t *testing.T, workload string, trace bool) *config {
	return &config{
		workload: workload,
		seed:     7,
		duration: 400 * time.Millisecond,
		trace:    trace,
		size:     tinySize,
		scratch:  t.TempDir(),
		outDir:   t.TempDir(),
		repoRoot: "..",
	}
}

// TestSmoke runs all four workloads at tiny size, untraced and traced,
// and checks the result line: exactly the named metrics, correctly
// unit-tagged, finite, every oracle passed. It makes the traced run twice:
// the exact counts must repeat.
func TestSmoke(t *testing.T) {
	for _, w := range workloadDefs {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", w.Name, trace), func(t *testing.T) { smoke(t, w.Name, trace) })
		}
	}
}

// runTiny makes one run and parses its result line.
func runTiny(t *testing.T, cfg *config) driverResult {
	t.Helper()
	var buf bytes.Buffer
	if err := runOne(&buf, cfg); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res driverResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	return res
}

func smoke(t *testing.T, workload string, trace bool) {
	t.Parallel() // nothing here asserts a time
	cfg := tinyConfig(t, workload, trace)
	res := runTiny(t, cfg)
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, m := range defs {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s has unit %q, want %q", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s = %v", m.Name, got.Value)
		case got.Value < 0 && m.Name != "go.heap_growth_mb_per_op": // the heap may shrink
			t.Errorf("%s = %v", m.Name, got.Value)
		case !trace && got.Value == 0:
			t.Errorf("end-to-end metric %s is 0", m.Name)
		}
	}
	if !trace {
		return
	}
	for _, name := range []string{"trace-" + workload + ".jsonl", "trace-" + workload + ".chrome.json", "layers.json"} {
		if st, err := os.Stat(filepath.Join(cfg.outDir, name)); err != nil || st.Size() == 0 {
			t.Errorf("traced run left no %s (%v)", name, err)
		}
	}
	if workload != "load" && res.Metrics["bench.span_coverage"].Value < 0.9 {
		t.Errorf("layer spans cover %.2f of the op wall, want 0.9", res.Metrics["bench.span_coverage"].Value)
	}
	if workload == "load" && res.Metrics["core.analyze_s"].Value != 0 {
		t.Errorf("load reports core time %v", res.Metrics["core.analyze_s"].Value)
	}
	// load has no exact counts (its rates come from concurrent clients),
	// and table2 runs the code gen1056 runs, with costlier probes.
	if workload == "load" || workload == "table2" {
		return
	}
	again := runTiny(t, tinyConfig(t, workload, true))
	for name, m := range res.Metrics {
		exact := m.Unit == "count" || name == "core.report_bytes" || name == "trace.payload_bytes"
		if exact && again.Metrics[name].Value != m.Value {
			t.Errorf("%s = %v, then %v: an exact count must repeat", name, m.Value, again.Metrics[name].Value)
		}
	}
}

// TestWrongExpectationFails plants a wrong known answer and checks that
// ops fail their oracle and the command would exit non-zero.
func TestWrongExpectationFails(t *testing.T) {
	table2Deadlocks["broadleaf"]++
	defer func() { table2Deadlocks["broadleaf"]-- }()
	cfg := tinyConfig(t, "table2", false)
	cfg.size.warmTable2 = 0 // a failing warm-up would end the run before any op is counted
	var buf bytes.Buffer
	err := runOne(&buf, cfg)
	if err == nil {
		t.Fatal("run with a wrong expectation succeeded")
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res driverResult
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		t.Fatalf("result line: %v (run error %v)", jerr, err)
	}
	if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
		t.Errorf("correct=%t failed=%d attempted=%d, want every op failed", res.Correct, res.Failed, res.Attempted)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{{5, "p50"}, {99, "p50"}, {100, "p90"}, {999, "p90"}, {1000, "p99"}, {10000, "p99.9"}, {85000, "p99.9"}} {
		if got, _ := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %s, want %s", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([1.0, 2.0, 4.0], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v, want 1, 4", q1, q3)
	}
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Error("median")
	}
}

func TestBoundComparison(t *testing.T) {
	lower := metricDef{Name: "t", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "r", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m         metricDef
		base, cur float64
		want      bool
	}{
		{lower, 1.0, 1.09, false},
		{lower, 1.0, 1.11, true},
		{lower, 1.0, 0.5, false},
		{higher, 100, 91, false},
		{higher, 100, 89, true},
		{higher, 100, 200, false},
	} {
		if got := regressed(c.m, c.base, c.cur); got != c.want {
			t.Errorf("regressed(%s, %v -> %v) = %t, want %t", c.m.Better, c.base, c.cur, got, c.want)
		}
	}
	if w := worseBy(higher, 100, 90); math.Abs(w-0.1) > 1e-12 {
		t.Errorf("worseBy = %v, want 0.1", w)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "a", Start: 1, End: 4},
		{ID: 2, Parent: 0, Name: "b", Start: 3, End: 6},  // overlaps a: counted once
		{ID: 3, Parent: 0, Name: "c", Start: 8, End: 12}, // runs past its parent: clipped
		{ID: 4, Parent: 1, Name: "d", Start: 1, End: 2},
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{0: 10 - 5 - 2, 1: 2, 2: 3, 3: 4, 4: 1} {
		if math.Abs(self[id]-want) > 1e-12 {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	if got := spanCoverage(spans); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("coverage = %v, want 0.7", got)
	}
	if got := perOpP50(spans, "a", true); got != 2 {
		t.Errorf("perOpP50 self = %v, want 2", got)
	}
}

// TestBenchmarkJSONInSync keeps BENCHMARK.json equal to what -spec
// prints and inside the driver's limits.
func TestBenchmarkJSONInSync(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run ./benchmark -spec > BENCHMARK.json`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadDefs {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound > 0.25 {
			t.Errorf("metric %+v is outside the contract", m)
		}
		setup = setup || m == metricDef{"setup_s", "s", "lower", m.Bound}
	}
	if !setup || len(perLayer) > 128 || len(want) > 64<<10 {
		t.Error("BENCHMARK.json is outside the contract")
	}
}
