package obs_test

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"weseer/internal/obs"
	"weseer/internal/obs/obstest"
)

func TestTracerSpans(t *testing.T) {
	tr := obs.NewTracer()
	outer := tr.Start(0, "analyze", obs.String("app", "demo"))
	inner := tr.Start(1, "chain", obs.Int("idx", 3))
	inner.End(obs.Bool("sat", true))
	outer.End(obs.Duration("wall", 5*time.Millisecond))

	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	// Events are ordered by start: "analyze" opened first.
	if evs[0].Name != "analyze" || evs[1].Name != "chain" {
		t.Fatalf("bad order: %q, %q", evs[0].Name, evs[1].Name)
	}
	if evs[0].TID != 0 || evs[1].TID != 1 {
		t.Fatalf("bad tids: %d, %d", evs[0].TID, evs[1].TID)
	}
	if len(evs[1].Attrs) != 2 {
		t.Fatalf("chain attrs = %v, want start+end attr merged", evs[1].Attrs)
	}
	if evs[0].Dur < evs[1].Dur {
		t.Fatalf("outer span shorter than inner: %v < %v", evs[0].Dur, evs[1].Dur)
	}
}

func TestNilSinksAreNoOps(t *testing.T) {
	var tr *obs.Tracer
	sp := tr.Start(0, "x")
	sp.End()
	if got := tr.Events(); got != nil {
		t.Fatalf("nil tracer events = %v", got)
	}
	if err := (&obs.Tracer{}).WriteChromeTrace(io.Discard); err != nil {
		t.Fatal(err)
	}

	var o *obs.Observer
	o.StartSpan(1, "y").End()

	// A nil registry hands out nil instruments, themselves no-ops.
	var reg *obs.Registry
	reg.Counter("c", "x").Inc()
	reg.Gauge("g", "x").Set(1)
	reg.Histogram("h", "x", []float64{1}).Observe(1)
	if snap := reg.Snapshot(); snap != nil {
		t.Fatalf("nil registry snapshot = %v", snap)
	}

	var c *obs.Counter
	c.Inc()
	var g *obs.Gauge
	g.Set(7)
	var h *obs.Histogram
	h.Observe(1)
	var p *obs.Progress
	p.SetPhase("fine")
	p.ChainDone()
	if s := p.Snapshot(); s.Phase != "idle" || s.ETAMS != -1 {
		t.Fatalf("nil progress snapshot = %+v", s)
	}

	// Observer with nil components must also be inert.
	partial := &obs.Observer{}
	partial.StartSpan(0, "z").End()
	partial.Metrics.Counter("c", "x").Inc()
	partial.Progress.ChainDone()
}

func TestChromeTraceExport(t *testing.T) {
	tr := obs.NewTracer()
	tr.Start(0, "enumerate").End()
	tr.Start(2, "chain", obs.Int("idx", 0)).End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := obstest.ValidateChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events != 2 || sum.Threads[0] != 1 || sum.Threads[2] != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.NameCount["chain"] != 1 {
		t.Fatalf("name counts = %v", sum.NameCount)
	}
}

func TestRegistryPrometheusAndSnapshot(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("weseer_test_total", "a counter")
	g := reg.Gauge("weseer_test_gauge", "a gauge")
	h := reg.Histogram("weseer_test_seconds", "a histogram", []float64{0.1, 1})

	c.Add(3)
	c.Inc()
	c.Add(-5) // ignored: counters are monotonic
	g.Set(10)
	g.Add(-3)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obstest.ValidatePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	want := map[string]float64{
		"weseer_test_total":                     4,
		"weseer_test_gauge":                     7,
		`weseer_test_seconds_bucket{le="0.1"}`:  1,
		`weseer_test_seconds_bucket{le="1"}`:    2,
		`weseer_test_seconds_bucket{le="+Inf"}`: 3,
		"weseer_test_seconds_count":             3,
	}
	for k, v := range want {
		if samples[k] != v {
			t.Errorf("%s = %v, want %v", k, samples[k], v)
		}
	}
	if sum := samples["weseer_test_seconds_sum"]; sum < 2.54 || sum > 2.56 {
		t.Errorf("histogram sum = %v, want 2.55", sum)
	}

	snap := reg.Snapshot()
	if snap["weseer_test_total"] != 4 || snap["weseer_test_seconds_count"] != 3 {
		t.Fatalf("snapshot = %v", snap)
	}
	if snap[`weseer_test_seconds_bucket{le="1"}`] != 2 {
		t.Fatalf("snapshot bucket = %v", snap)
	}
}

// TestRegistryGetOrCreate: a long-lived registry meets the same
// instrumented package once per run, so asking for a known name of the
// same kind returns the instrument that is already there — one exposition
// entry, one value — whatever help or bounds the later call passes.
func TestRegistryGetOrCreate(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("weseer_test_total", "a counter")
	g := reg.Gauge("weseer_test_gauge", "a gauge")
	h := reg.Histogram("weseer_test_seconds", "a histogram", []float64{0.1, 1})
	if reg.Counter("weseer_test_total", "other words") != c ||
		reg.Gauge("weseer_test_gauge", "a gauge") != g ||
		reg.Histogram("weseer_test_seconds", "a histogram", []float64{5}) != h {
		t.Fatal("a second registration under a known name built a second instrument")
	}
	c.Inc()
	reg.Counter("weseer_test_total", "a counter").Inc()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obstest.ValidatePrometheus(&buf) // rejects a duplicate sample
	if err != nil {
		t.Fatal(err)
	}
	if samples["weseer_test_total"] != 2 {
		t.Fatalf("counter = %v, want both increments on one instrument", samples["weseer_test_total"])
	}
}

// TestRegistryDuplicatePanics: one name for two kinds of instrument is a
// programming error, not something to paper over.
func TestRegistryDuplicatePanics(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("dup", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge under a counter's name did not panic")
		}
	}()
	reg.Gauge("dup", "y")
}

func TestProgress(t *testing.T) {
	p := obs.NewProgress()
	if s := p.Snapshot(); s.Phase != "idle" || s.ETAMS != -1 {
		t.Fatalf("initial snapshot = %+v", s)
	}
	p.SetPhase("fine")
	p.SetChains(4)
	p.ChainDone()
	p.ChainDone()
	s := p.Snapshot()
	if s.Phase != "fine" || s.ChainsDone != 2 || s.ChainsTotal != 4 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.ETAMS < 0 {
		t.Fatalf("eta = %d, want >= 0 once chains complete", s.ETAMS)
	}
	prev := s.ChainsDone
	p.ChainDone()
	if got := p.Snapshot().ChainsDone; got != prev+1 {
		t.Fatalf("chains done %d -> %d, want monotonic +1", prev, got)
	}
}

func TestDebugServer(t *testing.T) {
	o := obs.NewObserver()
	o.Metrics.Counter("weseer_test_total", "a counter").Add(9)
	o.Progress.SetPhase("enumerate")

	ds, err := obs.StartDebugServer("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ds.Addr()

	body := httpGet(t, base+"/metrics")
	samples, err := obstest.ValidatePrometheus(strings.NewReader(body))
	if err != nil {
		t.Fatalf("%v\n%s", err, body)
	}
	if samples["weseer_test_total"] != 9 {
		t.Fatalf("counter = %v", samples["weseer_test_total"])
	}

	prog := httpGet(t, base+"/progress")
	if !strings.Contains(prog, `"phase":"enumerate"`) {
		t.Fatalf("progress body = %s", prog)
	}

	pprofIdx := httpGet(t, base+"/debug/pprof/")
	if !strings.Contains(pprofIdx, "goroutine") {
		t.Fatalf("pprof index = %.200s", pprofIdx)
	}

	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(base + "/metrics"); err == nil {
		t.Fatal("server still serving after Close")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
