package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/btree"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/history"
	"weseer/internal/obs"
	"weseer/internal/obs/obstest"
	"weseer/internal/solver"
	"weseer/internal/trace"
)

// daemon is one running serve instance (store + debug server) for the
// end-to-end test; stop() simulates a shutdown, after which the store
// can be reopened as a restart.
type daemon struct {
	store *history.Store
	ds    *obs.DebugServer
	base  string
}

func startDaemon(t *testing.T, storePath string) *daemon {
	t.Helper()
	st, err := history.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	o := newDaemonObserver()
	srv := newHistoryServer(st, o, serveConfig{defaultApp: "broadleaf"})
	ds, err := obs.StartDebugServer("127.0.0.1:0", o, srv.Routes()...)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	return &daemon{store: st, ds: ds, base: "http://" + ds.Addr()}
}

func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.ds.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.store.Close(); err != nil {
		t.Fatal(err)
	}
}

// collectTraces runs the app's unit tests under concolic execution and
// returns the trace batch as the JSON `weseer collect` would write.
func collectTraces(t *testing.T, appName string) []byte {
	t.Helper()
	app, err := apps.Open(appName, apps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(traces)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func ingestBatch(t *testing.T, base, appName string, payload []byte) history.IngestSummary {
	t.Helper()
	resp, err := http.Post(base+"/ingest?app="+appName, obs.ContentTypeJSON, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest %s: %s\n%s", appName, resp.Status, body)
	}
	var sum history.IngestSummary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	return sum
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return body
}

// TestServeRoundTripRestart is the PR's acceptance pin: ingest the
// Table II corpora into a running daemon, restart it, and the history
// must still report every catalog deadlock grouped by fingerprint with
// the same rollups; re-ingesting the same traces adds zero events.
func TestServeRoundTripRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table II corpus analysis")
	}
	obstest.CheckGoroutines(t)
	storePath := filepath.Join(t.TempDir(), "history.wal")
	broadleaf := collectTraces(t, "broadleaf")
	shopizer := collectTraces(t, "shopizer")

	d := startDaemon(t, storePath)
	sumB := ingestBatch(t, d.base, "broadleaf", broadleaf)
	sumS := ingestBatch(t, d.base, "shopizer", shopizer)
	if sumB.Stored == 0 || sumS.Stored == 0 {
		t.Fatalf("first ingests stored nothing: broadleaf %+v shopizer %+v", sumB, sumS)
	}
	stored := sumB.Stored + sumS.Stored

	// Re-ingesting the same traces must add zero events.
	reB := ingestBatch(t, d.base, "broadleaf", broadleaf)
	reS := ingestBatch(t, d.base, "shopizer", shopizer)
	if reB.Stored != 0 || reS.Stored != 0 {
		t.Fatalf("re-ingest stored events: broadleaf %+v shopizer %+v", reB, reS)
	}
	if reB.Deduped != sumB.Stored || reS.Deduped != sumS.Stored {
		t.Fatalf("re-ingest dedup mismatch: broadleaf %+v (stored %d), shopizer %+v (stored %d)",
			reB, sumB.Stored, reS, sumS.Stored)
	}

	patternsBefore := getBody(t, d.base+"/history/patterns")
	d.stop(t)

	// Restart: a fresh daemon over the same store file.
	d2 := startDaemon(t, storePath)
	defer d2.stop(t)
	patternsAfter := getBody(t, d2.base+"/history/patterns")
	if !bytes.Equal(patternsBefore, patternsAfter) {
		t.Fatalf("patterns changed across restart:\nbefore:\n%s\nafter:\n%s", patternsBefore, patternsAfter)
	}

	var p history.PatternSummary
	if err := json.Unmarshal(patternsAfter, &p); err != nil {
		t.Fatal(err)
	}
	if p.Events != stored {
		t.Errorf("patterns events = %d, want %d", p.Events, stored)
	}
	// Every Table II catalog entry must survive the restart.
	classes := map[string]history.Rollup{}
	for _, r := range p.Classes {
		classes[r.Key] = r
	}
	for _, id := range []string{
		"d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8", "d9", "d10",
		"d11", "d12", "d13", "d14", "d15", "d16", "d17", "d18",
	} {
		if r, ok := classes[id]; !ok || r.Events == 0 {
			t.Errorf("catalog entry %s missing from restarted history (%+v)", id, r)
		}
	}
	// Per-table rollups: sightings doubled by the re-ingest, and the
	// catalog's central tables are present.
	tables := map[string]history.Rollup{}
	for _, r := range p.Tables {
		tables[r.Key] = r
		if r.Seen != 2*r.Events {
			t.Errorf("table %s: seen %d, want 2x events %d", r.Key, r.Seen, r.Events)
		}
	}
	for _, tbl := range []string{"Orders", "OrderItem", "Customer"} {
		if _, ok := tables[tbl]; !ok {
			t.Errorf("table %s missing from rollups", tbl)
		}
	}

	// And the restarted daemon still dedups the same corpus.
	re := ingestBatch(t, d2.base, "broadleaf", broadleaf)
	if re.Stored != 0 || re.Deduped != sumB.Stored {
		t.Fatalf("post-restart re-ingest: %+v", re)
	}
}

// TestStatsJSONGolden pins the -json stats object — keys, their order,
// the values each carries (timings in whole milliseconds) and version 1 —
// for a Stats literal with a distinct number in every field. The golden
// was recorded from the hand-written mirror struct the object used to be
// built from; it is now rendered from core.StatsTable.
func TestStatsJSONGolden(t *testing.T) {
	st := core.Stats{
		Traces: 1, Pairs: 2, PairsAfterPhase1: 3, CoarseCycles: 4, IndexProbes: 5,
		LockFiltered: 6, GroupsSolved: 7, Fingerprints: 11, SolverCalls: 12, MemoHits: 13, CanonCalls: 14,
		SolverSAT: 15, SolverUNSAT: 16, SolverUnknown: 17,
		Engine: solver.Stats{Atoms: 18, Clauses: 19, Decisions: 20, Conflicts: 21, TheoryCalls: 22,
			Propagations: 23, LearnedClauses: 24, Backjumps: 25},
		Parallelism: 26,
		SolverTime:  27*time.Millisecond + 999*time.Microsecond,
		CanonTime:   28 * time.Millisecond,
		EnumTime:    29 * time.Millisecond,
		FineTime:    30 * time.Millisecond,
	}
	got, err := json.MarshalIndent(jsonReport{Version: 1, Stats: statsObject(st), Reports: []jsonDeadlck{}}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/stats_json.golden")
	if err != nil {
		t.Fatal(err)
	}
	if string(got)+"\n" != string(want) {
		t.Errorf("-json report differs from testdata/stats_json.golden:\n%s", got)
	}
}

// TestIngestReportFormat: `weseer ingest -format report` reads this
// command's own -json report, turns each deadlock into the history event
// it describes and posts those — the daemon decodes traces and events,
// nothing else.
func TestIngestReportFormat(t *testing.T) {
	obstest.CheckGoroutines(t)
	d := startDaemon(t, filepath.Join(t.TempDir(), "history.wal"))
	defer d.stop(t)
	ingest := func(report string) error {
		file := filepath.Join(t.TempDir(), "report.json")
		if err := os.WriteFile(file, []byte(report), 0o644); err != nil {
			t.Fatal(err)
		}
		return cmdIngest([]string{"-addr", d.base, "-i", file, "-format", "report", "-app", "demo"})
	}
	if err := ingest(`{"version": 1, "stats": {"traces": 2}, "deadlocks": [
		{"fingerprint": "00000000000000aa", "catalog": "d3",
		 "apis": ["A", "B"], "tables": ["X", "Y"], "count": 5}]}`); err != nil {
		t.Fatal(err)
	}
	var events []history.Event
	if err := json.Unmarshal(getBody(t, d.base+"/history/events?table=X"), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Class != "d3" || events[0].Seen != 1 || events[0].Count != 5 {
		t.Fatalf("report-ingested event: %+v", events)
	}
	if e := events[0]; e.App != "demo" || e.APIs != [2]string{"A", "B"} || strings.Join(e.Tables, ",") != "X,Y" {
		t.Errorf("report-ingested event lost a field: %+v", e)
	}
	if err := ingest("{nope"); err == nil {
		t.Error("a malformed report was posted")
	}
}

// TestIngestReportMatchesTraces: one corpus posted to two fresh daemons,
// once as traces the daemon analyzes and once as this command's -json
// report of the same traces, stores the same events — holds and waits
// included — once their timestamps are masked.
func TestIngestReportMatchesTraces(t *testing.T) {
	dir := t.TempDir()
	traces, report := filepath.Join(dir, "traces.json"), filepath.Join(dir, "report.json")
	if err := os.WriteFile(traces, collectTraces(t, "broadleaf"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, stderr, status := weseer(t, "analyze -app broadleaf -json -i "+traces)
	if status != 0 {
		t.Fatalf("analyze -json: exit %d\n%s", status, stderr)
	}
	if err := os.WriteFile(report, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	var bodies [2][]byte
	var err error
	for i, c := range []struct{ format, file string }{{"traces", traces}, {"report", report}} {
		d := startDaemon(t, filepath.Join(t.TempDir(), "history.wal"))
		if err = cmdIngest([]string{"-addr", d.base, "-i", c.file, "-format", c.format, "-app", "broadleaf"}); err != nil {
			t.Fatal(err)
		}
		var events []history.Event
		if err = json.Unmarshal(getBody(t, d.base+"/history/events"), &events); err != nil {
			t.Fatal(err)
		}
		d.stop(t)
		for j := range events {
			events[j].FirstSeen, events[j].LastSeen = time.Time{}, time.Time{}
		}
		if len(events) == 0 || events[0].Txns[0].HoldsAt == "" {
			t.Fatalf("-format %s stored %d events, the first without its holds", c.format, len(events))
		}
		if bodies[i], err = json.MarshalIndent(events, "", " "); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("events ingested from the report:\n%s\nfrom the traces:\n%s", bodies[1], bodies[0])
	}
}

// TestDaemonObserverRetainsNothing re-analyzes one corpus 20 times
// through the daemon's own wiring — newHistoryServer's Analyze with
// newDaemonObserver's observer, as every POST /ingest does. A daemon has
// no way to export spans, so it must not collect them (a tracer is
// append-only: 436 spans and 0.094 MB a re-ingest on this corpus), and
// what an analysis registers or publishes on the long-lived registry must
// not grow with the number of analyses. /metrics lists the pipeline's
// instruments before the first ingest and carries them after.
func TestDaemonObserverRetainsNothing(t *testing.T) {
	const spec = "gen:7,templates=96"
	st, err := history.Open(filepath.Join(t.TempDir(), "history.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	o := newDaemonObserver()
	srv := newHistoryServer(st, o, serveConfig{defaultApp: spec})

	metrics := func() map[string]float64 {
		var buf bytes.Buffer
		if err := o.Metrics.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		samples, err := obstest.ValidatePrometheus(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return samples
	}
	fresh := metrics()
	for i := range core.StatsTable {
		if m := core.StatsTable[i].Metric; m != "" {
			if v, ok := fresh[m]; !ok || v != 0 {
				t.Errorf("fresh daemon: %s listed=%v value=%v, want listed at zero", m, ok, v)
			}
		}
	}

	var traces []*trace.Trace
	if err := json.Unmarshal(collectTraces(t, spec), &traces); err != nil {
		t.Fatal(err)
	}
	liveMB := func() float64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc) / (1 << 20)
	}
	// Both measurements are taken inside the loop, where the same things
	// are live: the corpus, the server and its observer.
	const warm, total = 5, 25
	var base, last float64
	for i := 1; i <= total; i++ {
		events, err := srv.Analyze(context.Background(), "", traces)
		if err != nil || len(events) == 0 {
			t.Fatalf("analysis %d: %d events, %v", i, len(events), err)
		}
		switch i {
		case warm:
			base = liveMB()
		case total:
			last = liveMB()
		}
	}
	grow := (last - base) / (total - warm)
	t.Logf("live heap grows %.3f MB per re-ingest", grow)
	if grow > 0.03 {
		t.Errorf("live heap grows %.3f MB per re-ingest, want <= 0.03", grow)
	}
	if n := len(o.Tracer.Events()); n != 0 {
		t.Errorf("daemon observer retains %d spans after %d re-ingests", n, total)
	}
	if o.Progress != nil {
		t.Error("daemon observer tracks progress: a phase and an ETA belong to one run")
	}
	after := metrics()
	if got := after["weseer_funnel_traces_total"]; got != float64(total*len(traces)) {
		t.Errorf("weseer_funnel_traces_total = %v after %d ingests of %d traces", got, total, len(traces))
	}
	if all, done := after["weseer_chains_total"], after["weseer_chains_done"]; all == 0 || all != done {
		t.Errorf("idle daemon: weseer_chains_total %v, weseer_chains_done %v; want equal and nonzero", all, done)
	}
}

// TestHistoryWindowOnPatternsRefused: the pattern rollups are all-history,
// so `weseer history patterns -window D` fails without asking the daemon
// (which would answer 400), while events and tables take the window.
func TestHistoryWindowOnPatternsRefused(t *testing.T) {
	obstest.CheckGoroutines(t)
	d := startDaemon(t, filepath.Join(t.TempDir(), "history.wal"))
	defer d.stop(t)
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	defer func(old *os.File) { os.Stdout = old }(os.Stdout)
	os.Stdout = out

	if err := cmdHistory([]string{"-addr", d.base, "patterns", "-window", "1h"}); err == nil || !strings.Contains(err.Error(), "all-history") {
		t.Errorf("history patterns -window 1h: err %v, want a refusal naming the rollups all-history", err)
	}
	for _, args := range [][]string{{"patterns"}, {"tables", "-window", "1h"}, {"events", "-window", "1h"}} {
		if err := cmdHistory(append([]string{"-addr", d.base}, args...)); err != nil {
			t.Errorf("history %v: %v", args, err)
		}
	}
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if want := "0 event(s), 0 sighting(s)\nno events in window\n0 event(s)\n"; string(printed) != want {
		t.Errorf("printed %q, want %q", printed, want)
	}

	resp, err := http.Get(d.base + "/history/patterns?window=1h")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "all-history") {
		t.Errorf("GET /history/patterns?window=1h: %s %s, want 400", resp.Status, body)
	}
}

// TestServeRejectsMalformedTraces posts the corrupted broadleaf batches
// that used to panic an analysis worker and take the daemon down with it:
// each ingest is a 4xx, and the daemon still answers afterwards.
func TestServeRejectsMalformedTraces(t *testing.T) {
	d := startDaemon(t, filepath.Join(t.TempDir(), "history.wal"))
	defer d.stop(t)
	for _, c := range corrupt(t, collectTraces(t, "broadleaf")) {
		resp, err := http.Post(d.base+"/ingest?app=broadleaf", obs.ContentTypeJSON, bytes.NewReader(c.batch))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 || !strings.Contains(string(body), c.want) {
			t.Errorf("%s: %s %s, want a 4xx naming %q", c.name, resp.Status, body, c.want)
		}
		getBody(t, d.base+"/history/patterns")
	}
}

// TestServeRefusesV1Store: serve on a version-1 store fails before it
// listens, names the remedy (a new -store, re-ingested) and leaves the
// file byte for byte as it was.
func TestServeRefusesV1Store(t *testing.T) {
	want, err := os.ReadFile("../../internal/history/testdata/v1.wal")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v1.wal")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	err = cmdServe([]string{"-store", path, "-addr", "127.0.0.1:0"})
	var fe *btree.FormatError
	if !errors.As(err, &fe) || !strings.Contains(err.Error(), "start on a new -store and re-ingest") {
		t.Errorf("serve on a version-1 store: %v, want a format error naming the remedy", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Errorf("serve changed the version-1 store it refused (read error %v)", err)
	}
}
