package history

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"weseer/internal/obs"
	"weseer/internal/obs/obstest"
	"weseer/internal/trace"
)

// newTestServer wires a Server over a fresh store with a fake analyzer
// that maps each trace to one event keyed by the trace's API name.
func newTestServer(t *testing.T) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	store, err := Open(filepath.Join(t.TempDir(), "history.wal"), WithClock(fixedClock()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	reg := obs.NewRegistry()
	srv := &Server{
		Store: store,
		Analyze: func(_ context.Context, app string, traces []*trace.Trace) ([]Event, error) {
			var events []Event
			for _, tr := range traces {
				events = append(events, Event{
					Fingerprint: fmt.Sprintf("%016x", len(tr.API)),
					App:         app,
					APIs:        [2]string{tr.API, tr.API},
					Tables:      []string{"T"},
				})
			}
			return events, nil
		},
		Metrics: RegisterMetrics(reg),
	}
	ts := httptest.NewServer(routesMux(srv))
	t.Cleanup(ts.Close)
	return srv, ts, reg
}

func postIngest(t *testing.T, ts *httptest.Server, query string, body any) (IngestSummary, *http.Response) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/ingest"+query, obs.ContentTypeJSON, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sum IngestSummary
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
			t.Fatalf("decode summary: %v", err)
		}
	}
	return sum, resp
}

func TestIngestEventsAndQueries(t *testing.T) {
	obstest.CheckGoroutines(t)
	_, ts, reg := newTestServer(t)

	sum, resp := postIngest(t, ts, "?format=events", testEvents())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != obs.ContentTypeJSON {
		t.Errorf("ingest Content-Type = %q", got)
	}
	if sum.Stored != 3 || sum.Deduped != 0 {
		t.Fatalf("first ingest: %+v", sum)
	}
	// Idempotent on re-post.
	sum, _ = postIngest(t, ts, "?format=events", testEvents())
	if sum.Stored != 0 || sum.Deduped != 3 {
		t.Fatalf("re-ingest: %+v", sum)
	}

	// Metrics reflect both batches.
	snap := reg.Snapshot()
	if snap["weseer_history_events"] != 3 ||
		snap["weseer_history_ingest_stored_total"] != 3 ||
		snap["weseer_history_ingest_dedup_total"] != 3 ||
		snap["weseer_history_ingest_batches_total"] != 2 ||
		snap["weseer_history_ingest_seconds_count"] != 2 {
		t.Errorf("metrics snapshot: %+v", snap)
	}

	// JSON event query with filter.
	resp2, err := http.Get(ts.URL + "/history/events?class=d14")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if got := resp2.Header.Get("Content-Type"); got != obs.ContentTypeJSON {
		t.Errorf("events Content-Type = %q", got)
	}
	var events []Event
	if err := json.NewDecoder(resp2.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Class != "d14" {
		t.Fatalf("filtered events: %+v", events)
	}

	// Patterns, text format.
	resp3, err := http.Get(ts.URL + "/history/patterns?format=text")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if got := resp3.Header.Get("Content-Type"); got != obs.ContentTypeText {
		t.Errorf("patterns text Content-Type = %q", got)
	}
	text := string(body)
	for _, want := range []string{"3 event(s), 6 sighting(s)", "d1", "d14", "Order", "Checkout -- UpdateSku"} {
		if !strings.Contains(text, want) {
			t.Errorf("patterns text missing %q:\n%s", want, text)
		}
	}

	// Tables with a window that excludes everything.
	resp4, err := http.Get(ts.URL + "/history/tables?window=1ns")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp4.Body)
	resp4.Body.Close()
	var counts []TableCount
	if err := json.Unmarshal(body, &counts); err != nil {
		t.Fatalf("tables JSON: %v\n%s", err, body)
	}
	if len(counts) != 0 {
		t.Errorf("1ns window should be empty: %+v", counts)
	}
}

func TestIngestTracesRunsAnalyzer(t *testing.T) {
	_, ts, _ := newTestServer(t)
	traces := []*trace.Trace{{API: "Checkout"}, {API: "AddSku"}, {API: "Checkout"}}
	sum, resp := postIngest(t, ts, "?app=shop", traces)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// "Checkout" twice → same fingerprint → one stored, one deduped.
	if sum.Received != 3 || sum.Stored != 2 || sum.Deduped != 1 {
		t.Fatalf("trace ingest: %+v", sum)
	}
	resp2, err := http.Get(ts.URL + "/history/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var events []Event
	if err := json.NewDecoder(resp2.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.App != "shop" {
			t.Errorf("event app = %q, want shop", e.App)
		}
	}
}

func TestIngestErrors(t *testing.T) {
	srv, ts, reg := newTestServer(t)

	// GET is rejected.
	resp, err := http.Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest status %d", resp.StatusCode)
	}

	// Bad JSON is a 400 and counts as an error.
	resp, err = http.Post(ts.URL+"/ingest?format=events", obs.ContentTypeJSON, strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != obs.ContentTypeJSON {
		t.Errorf("error Content-Type = %q", got)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
		t.Errorf("error body %q", body)
	}

	// Unknown format — which a report is on the wire: `weseer ingest
	// -format report` sends the events it describes.
	for _, format := range []string{"parquet", "report"} {
		resp, err = http.Post(ts.URL+"/ingest?format="+format, obs.ContentTypeJSON, strings.NewReader("[]"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("format=%s status %d", format, resp.StatusCode)
		}
	}

	// A null trace is a bad batch, not a nil trace for the analyzer.
	resp, err = http.Post(ts.URL+"/ingest?format=traces", obs.ContentTypeJSON, strings.NewReader("[null]"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("null trace status %d", resp.StatusCode)
	}

	// Trace ingest without an analyzer.
	srv.Analyze = nil
	resp, err = http.Post(ts.URL+"/ingest", obs.ContentTypeJSON, strings.NewReader("[]"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("no-analyzer status %d", resp.StatusCode)
	}

	if got := reg.Snapshot()["weseer_history_ingest_errors_total"]; got != 5 {
		t.Errorf("ingest_errors_total = %v, want 5", got)
	}

	// Bad window on a query endpoint.
	resp, err = http.Get(ts.URL + "/history/tables?window=tomorrow")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad window status %d", resp.StatusCode)
	}
}

// TestIngestInvalidEventIs400: an event the store refuses is the client's
// error, and none of its batch is stored.
func TestIngestInvalidEventIs400(t *testing.T) {
	srv, ts, reg := newTestServer(t)
	batch := testEvents()
	batch[2].Fingerprint = ""
	_, resp := postIngest(t, ts, "?format=events", batch)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("fingerprintless event: status %d, want 400", resp.StatusCode)
	}
	if n := srv.Store.Len(); n != 0 {
		t.Errorf("refused batch left %d events in the store", n)
	}
	if got := reg.Snapshot()["weseer_history_ingest_errors_total"]; got != 1 {
		t.Errorf("ingest_errors_total = %v, want 1", got)
	}
}

// TestIngestOversizedBody checks that a body over the limit is refused
// as such — 413 naming the limit — not truncated and then reported as a
// JSON syntax error, and that a body exactly at the limit still gets in.
func TestIngestOversizedBody(t *testing.T) {
	_, ts, reg := newTestServer(t)
	defer func(old int64) { maxIngestBody = old }(maxIngestBody)
	maxIngestBody = 64

	post := func(n int) (int, string) {
		t.Helper()
		body := "[" + strings.Repeat(" ", n-2) + "]" // n bytes of valid JSON
		resp, err := http.Post(ts.URL+"/ingest?format=events", obs.ContentTypeJSON, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	if code, msg := post(int(maxIngestBody)); code != http.StatusOK {
		t.Errorf("body at the limit: status %d %s", code, msg)
	}
	code, msg := post(int(maxIngestBody) + 1)
	if code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "64-byte ingest limit") {
		t.Errorf("body one byte over the limit: status %d %s, want 413 naming the limit", code, msg)
	}
	if got := reg.Snapshot()["weseer_history_ingest_errors_total"]; got != 1 {
		t.Errorf("ingest_errors_total = %v, want 1", got)
	}
}

// TestIngestOversizedEvent: an event past the log's record limit is
// answered like an oversized body — 413, the client's payload — not 500.
func TestIngestOversizedEvent(t *testing.T) {
	srv, ts, reg := newTestServer(t)
	defer func(old int) { maxRecord = old }(maxRecord)
	maxRecord = 512
	batch := testEvents()
	batch[1].Class = strings.Repeat("x", maxRecord)
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/ingest?format=events", obs.ContentTypeJSON, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(msg), "limit 512") {
		t.Errorf("status %d %s, want 413 naming the limit", resp.StatusCode, msg)
	}
	if n := srv.Store.Len(); n != 0 {
		t.Errorf("refused batch left %d events in the store", n)
	}
	if got := reg.Snapshot()["weseer_history_ingest_errors_total"]; got != 1 {
		t.Errorf("ingest_errors_total = %v, want 1", got)
	}
}

// FuzzIngest posts arbitrary bodies to /ingest, as events and as traces
// (re-analyzed by a stub that reads each trace and finds no deadlock; a
// null trace, seed traces_null, used to panic it), over one temporary
// store: no panic, a status from the documented set, a refused request
// leaves the store alone, and an accepted one adds up — Received = Stored
// + Deduped, and the store grew by Stored. The record limit is lowered so
// small inputs reach the 413 path.
func FuzzIngest(f *testing.F) {
	defer func(old int) { maxRecord = old }(maxRecord)
	maxRecord = 512
	store, err := Open(filepath.Join(f.TempDir(), "history.wal"), WithClock(fixedClock()))
	if err != nil {
		f.Fatal(err)
	}
	defer store.Close()
	srv := &Server{Store: store, Analyze: func(_ context.Context, _ string, traces []*trace.Trace) ([]Event, error) {
		for _, tr := range traces {
			_ = tr.AllStmts() // the analyzer reads every trace
		}
		return nil, nil
	}}
	f.Fuzz(func(t *testing.T, asEvents bool, body []byte) {
		format := "traces"
		if asEvents {
			format = "events"
		}
		before := store.Len()
		rec := httptest.NewRecorder()
		srv.handleIngest(rec, httptest.NewRequest(http.MethodPost, "/ingest?format="+format, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			if n := store.Len(); n != before {
				t.Fatalf("refused request (%d) changed the store: %d -> %d events", rec.Code, before, n)
			}
			return
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var sum IngestSummary
		if err := json.Unmarshal(rec.Body.Bytes(), &sum); err != nil {
			t.Fatalf("summary: %v: %s", err, rec.Body)
		}
		if sum.Received != sum.Stored+sum.Deduped || store.Len() != before+sum.Stored || sum.Events != store.Len() {
			t.Fatalf("summary %+v does not add up: store %d -> %d events", sum, before, store.Len())
		}
	})
}

func TestEventsTextFormat(t *testing.T) {
	srv, ts, _ := newTestServer(t)
	if _, err := srv.Store.Ingest(testEvents()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/history/events?format=text&class=d1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"1 event(s)",
		"00000000000000a1",
		"Checkout -- UpdateSku",
		"UPDATE Sku SET qty = ? (cart.go:42)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("events text missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, time.Date(2026, 8, 8, 12, 1, 0, 0, time.UTC).Format(time.RFC3339)) {
		t.Errorf("events text missing first-seen timestamp:\n%s", text)
	}
}

// get sends one request to h and returns the recorded answer.
func get(h http.Handler, method, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
	return rec
}

// TestQueryRoutesAreReads: the /history/* routes answer GET and HEAD, and
// refuse every other method with 405 — no POST reaches a query handler.
func TestQueryRoutesAreReads(t *testing.T) {
	srv, _, reg := newTestServer(t)
	if _, err := srv.Store.Ingest(testEvents()); err != nil {
		t.Fatal(err)
	}
	mux := routesMux(srv)
	for _, path := range []string{"/history/events", "/history/patterns", "/history/tables"} {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete, http.MethodPatch} {
			if rec := get(mux, method, path); rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", method, path, rec.Code)
			}
		}
		if rec := get(mux, http.MethodHead, path); rec.Code != http.StatusOK {
			t.Errorf("HEAD %s: status %d", path, rec.Code)
		}
		if rec := get(mux, http.MethodGet, path); rec.Code != http.StatusOK {
			t.Errorf("GET %s: status %d", path, rec.Code)
		}
	}
	if got := reg.Snapshot()["weseer_history_queries_total"]; got != 6 {
		t.Errorf("queries_total = %v, want 6 (refused methods do not count)", got)
	}
}

// TestPatternsRefuseWindow: the pattern rollups are all-history, so a
// window on /history/patterns is the client's error, not ignored.
func TestPatternsRefuseWindow(t *testing.T) {
	srv, _, _ := newTestServer(t)
	mux := routesMux(srv)
	for _, path := range []string{"/history/patterns?window=1h", "/history/patterns?format=text&window=24h"} {
		rec := get(mux, http.MethodGet, path)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "all-history") ||
			!strings.Contains(rec.Body.String(), "window applies to events and tables") {
			t.Errorf("GET %s: status %d %s, want 400 naming the rollups all-history", path, rec.Code, rec.Body)
		}
	}
	for _, path := range []string{"/history/events?window=1h", "/history/tables?window=1h"} {
		if rec := get(mux, http.MethodGet, path); rec.Code != http.StatusOK {
			t.Errorf("GET %s: status %d %s", path, rec.Code, rec.Body)
		}
	}
}

// TestQueryRefusesBadValues: a negative window and a format other than
// json or text are the client's error on every /history/* route they
// reach — a 400 naming the parameter, not a cutoff in the future or a
// silent fall-back to JSON.
func TestQueryRefusesBadValues(t *testing.T) {
	srv, _, _ := newTestServer(t)
	if _, err := srv.Store.Ingest(testEvents()); err != nil {
		t.Fatal(err)
	}
	mux := routesMux(srv)
	for path, param := range map[string]string{
		"/history/events?window=-5s":   "window",
		"/history/tables?window=-1h":   "window",
		"/history/events?format=xml":   "format",
		"/history/patterns?format=xml": "format",
		"/history/tables?format=yaml":  "format",
		"/history/events?format=TEXT":  "format",
	} {
		rec := get(mux, http.MethodGet, path)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad "+param) {
			t.Errorf("GET %s: status %d %s, want 400 naming %s", path, rec.Code, rec.Body, param)
		}
	}
	for _, path := range []string{"/history/events?format=json", "/history/tables?format=", "/history/events?window=0s"} {
		if rec := get(mux, http.MethodGet, path); rec.Code != http.StatusOK {
			t.Errorf("GET %s: status %d %s, want 200", path, rec.Code, rec.Body)
		}
	}
}

// TestMemoFollowsStore drives a seeded random interleaving of new-event
// ingests, touch-only re-ingests, reopens, idle time and queries of all
// three routes (JSON and text, filtered, windowed, malformed): every
// answer of the long-lived Server equals, in status, Content-Type and
// bytes, what a fresh Server, whose routes have rendered nothing yet,
// answers over the same store.
func TestMemoFollowsStore(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	pool := benchBatches(benchBatch)[0][:300]
	path := filepath.Join(t.TempDir(), "history.wal")
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	clock := WithClock(func() time.Time { return now })
	s, err := Open(path, clock)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	reg := obs.NewRegistry()
	srv := &Server{Store: s, Metrics: RegisterMetrics(reg)}
	mux := routesMux(srv)
	queries := []string{
		"/history/patterns", "/history/patterns?format=text",
		"/history/events", "/history/events?format=text&limit=5",
		"/history/events?table=SynTable07&limit=100", "/history/events?class=syn3&api=SynApi4",
		"/history/events?window=30m&format=text", "/history/events?limit=-1",
		"/history/tables", "/history/tables?format=text",
		"/history/tables?window=30m", "/history/tables?window=3h&format=text",
	}
	stored, asked := 0, 0
	for step := 0; step < 600; step++ {
		switch k := rng.Intn(20); {
		case k < 3 && stored < len(pool): // new events, some minutes later
			n := min(1+rng.Intn(6), len(pool)-stored)
			now = now.Add(time.Duration(rng.Intn(40)) * time.Minute)
			if _, err := s.Ingest(pool[stored : stored+n]); err != nil {
				t.Fatal(err)
			}
			stored += n
		case k < 5 && stored > 0: // touches only
			batch := make([]Event, 1+rng.Intn(4))
			for i := range batch {
				batch[i] = pool[rng.Intn(stored)]
			}
			now = now.Add(time.Duration(rng.Intn(40)) * time.Minute)
			if _, err := s.Ingest(batch); err != nil {
				t.Fatal(err)
			}
		case k == 5: // restart the store under the same Server
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(path, clock); err != nil {
				t.Fatal(err)
			}
			srv.Store = s
		case k == 6: // time passes, the store stays as it is
			now = now.Add(time.Duration(1+rng.Intn(40)) * time.Minute)
		default:
			q := queries[rng.Intn(len(queries))]
			got := get(mux, http.MethodGet, q)
			want := get(routesMux(&Server{Store: s}), http.MethodGet, q)
			if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
				!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("step %d, GET %s: served %d %q\n%s\nfresh server: %d %q\n%s", step, q,
					got.Code, got.Header().Get("Content-Type"), got.Body, want.Code, want.Header().Get("Content-Type"), want.Body)
			}
			asked++
		}
	}
	snap := reg.Snapshot()
	if hits := snap["weseer_history_query_memo_hits_total"]; snap["weseer_history_queries_total"] != float64(asked) || hits < 20 || hits > float64(asked)/2 {
		t.Fatalf("%v memo hits over %v queries (%d asked): the sequence does not exercise both paths", hits, snap["weseer_history_queries_total"], asked)
	}
}

// TestMemoConcurrentIngest: readers query all three routes while batches
// are ingested, and after each ingest every route answers what a fresh
// Server renders — a reader may still be rendering, but none filed a body
// rendered before the ingest under the version that followed it. Run it
// under -race.
func TestMemoConcurrentIngest(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "history.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mux := routesMux(&Server{Store: s})
	queries := []string{"/history/patterns", "/history/events?limit=3&format=text", "/history/tables"}
	done := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(done)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, q := range queries {
					if rec := get(mux, http.MethodGet, q); rec.Code != http.StatusOK {
						t.Errorf("GET %s: %d", q, rec.Code)
						return
					}
				}
			}
		}()
	}
	pool := benchBatches(benchBatch)[0]
	for i := 0; i < len(pool); i += 50 {
		if _, err := s.Ingest(pool[i : i+50]); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			got, want := get(mux, http.MethodGet, q), get(routesMux(&Server{Store: s}), http.MethodGet, q)
			if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("GET %s after ingest %d: served a stale body", q, i/50+1)
			}
		}
	}
}

// TestServeCycleMemoHits: of one serve-cycle op's sixty GETs on a freshly
// started server, 38 are memo hits — all but the first of the patterns
// and of the events queries; the windowed tables queries always render.
// An ingest between two such rounds makes the first of each miss again.
func TestServeCycleMemoHits(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "history.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	batches := benchBatches(2 * benchBatch)
	reg := obs.NewRegistry()
	mux := routesMux(&Server{Store: s, Metrics: RegisterMetrics(reg)})
	for round, batch := range batches {
		if _, err := s.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		for _, q := range serveCycleQueries() {
			if rec := get(mux, http.MethodGet, q); rec.Code != http.StatusOK {
				t.Fatalf("GET %s: %d %s", q, rec.Code, rec.Body)
			}
		}
		snap := reg.Snapshot()
		if q, h := snap["weseer_history_queries_total"], snap["weseer_history_query_memo_hits_total"]; q != float64(60*(round+1)) || h != float64(38*(round+1)) {
			t.Errorf("after round %d: %v memo hits of %v queries, want %d of %d", round+1, h, q, 38*(round+1), 60*(round+1))
		}
	}
}
