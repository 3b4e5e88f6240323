package history

// The history store's HTTP surface, mounted on the internal/obs debug
// server by `weseer serve`: POST /ingest accepts trace batches (the
// weseer collect JSON format; the server re-analyzes them through the
// existing pipeline) or already-diagnosed events (this package's Event
// JSON; `weseer ingest -format report` builds them from a weseer analyze
// -json report), and the /history/* endpoints answer trend and pattern
// queries in JSON or text. Ingest, query and store metrics land in the
// same Prometheus registry the debug server already exposes on /metrics.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"weseer/internal/btree"
	"weseer/internal/obs"
	"weseer/internal/trace"
)

// maxIngestBody bounds one ingest request body (trace batches for a
// whole app corpus are a few MB; this is a DoS guard, not a quota). A
// larger body is refused with 413. A variable so tests can lower it.
var maxIngestBody int64 = 256 << 20

// AnalyzeFunc re-analyzes an ingested trace batch for the app named by
// the request (or the server default when empty) and returns the
// resulting history events. Implemented by cmd/weseer's serve wiring
// over apps.Open + core.AnalyzeContext; nil disables trace ingest.
type AnalyzeFunc func(ctx context.Context, app string, traces []*trace.Trace) ([]Event, error)

// IngestLatencyBuckets are the ingest-latency histogram bounds in
// seconds. Ingest includes a full incremental re-analysis of the trace
// batch, so the range runs from sub-millisecond (event ingest) to tens
// of seconds (large corpora).
var IngestLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Metrics are the history service's instruments, registered in the
// debug server's Prometheus registry.
type Metrics struct {
	Events        *obs.Gauge     // live store size (distinct fingerprints)
	Stored        *obs.Counter   // new events appended across ingests
	DedupHits     *obs.Counter   // re-sighted fingerprints across ingests
	Batches       *obs.Counter   // ingest requests accepted
	IngestErrors  *obs.Counter   // ingest requests rejected
	IngestLatency *obs.Histogram // wall time per ingest request (seconds)
	Queries       *obs.Counter   // GET/HEAD requests on /history/*
	QueryMemoHits *obs.Counter   // of those, answered from the route's memo
}

// RegisterMetrics registers the history instruments on reg (nil-safe:
// a nil registry yields inert metrics).
func RegisterMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Events:        reg.Gauge("weseer_history_events", "deadlock events in the history store (distinct fingerprints)"),
		Stored:        reg.Counter("weseer_history_ingest_stored_total", "new deadlock events appended by ingest"),
		DedupHits:     reg.Counter("weseer_history_ingest_dedup_total", "ingested deadlocks deduplicated against stored fingerprints"),
		Batches:       reg.Counter("weseer_history_ingest_batches_total", "ingest requests accepted"),
		IngestErrors:  reg.Counter("weseer_history_ingest_errors_total", "ingest requests rejected"),
		IngestLatency: reg.Histogram("weseer_history_ingest_seconds", "per-request ingest wall time, analysis included", IngestLatencyBuckets),
		Queries:       reg.Counter("weseer_history_queries_total", "GET and HEAD requests on /history/*"),
		QueryMemoHits: reg.Counter("weseer_history_query_memo_hits_total", "history queries answered with the body rendered for an earlier one"),
	}
}

// Server serves one Store over HTTP.
type Server struct {
	Store   *Store
	Analyze AnalyzeFunc // nil: only format=events ingest
	Metrics *Metrics    // nil: no instrumentation
	// Timeout bounds one ingest request's analysis (0 = none).
	Timeout time.Duration
}

// Routes returns the endpoint set to mount on the obs debug server. Each
// /history/* route keeps the last body it rendered (see query).
func (s *Server) Routes() []obs.Route {
	return []obs.Route{
		{Pattern: "/ingest", Handler: http.HandlerFunc(s.handleIngest)},
		{Pattern: "/history/events", Handler: s.query(s.handleEvents)},
		{Pattern: "/history/patterns", Handler: s.query(s.handlePatterns)},
		{Pattern: "/history/tables", Handler: s.query(s.handleTables)},
	}
}

// memo is a route's last 200 answer to a query without a window, filed
// under the store and the store version read before rendering it.
type memo struct {
	query   string
	store   *Store
	version uint64
	ctype   string
	body    []byte
}

// bufferedResponse keeps a handler's status and body; headers go straight
// to the real response.
type bufferedResponse struct {
	http.ResponseWriter
	code int
	body bytes.Buffer
}

func (b *bufferedResponse) WriteHeader(code int)        { b.code = code }
func (b *bufferedResponse) Write(p []byte) (int, error) { return b.body.Write(p) }

// query wraps a /history/* handler: GET and HEAD only, format json (the
// default) or text, and a query without a window, whose answer depends on
// the store's state alone, is served from the route's memo while the store
// is at the memo's version.
// The version is read before rendering, so a body that already reflects
// a concurrent ingest is filed under an older version and never served.
func (s *Server) query(h http.HandlerFunc) http.HandlerFunc {
	var last atomic.Pointer[memo]
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			httpError(w, http.StatusMethodNotAllowed, "GET or HEAD only")
			return
		}
		s.metrics().Queries.Inc()
		q := r.URL.Query()
		if f := q.Get("format"); f != "" && f != "json" && f != "text" {
			httpError(w, http.StatusBadRequest, "bad format %q (json|text)", f)
			return
		}
		if q.Get("window") != "" {
			h(w, r)
			return
		}
		store := s.Store
		version := store.version.Load()
		if m := last.Load(); m != nil && m.store == store && m.version == version && m.query == r.URL.RawQuery {
			s.metrics().QueryMemoHits.Inc()
			w.Header().Set("Content-Type", m.ctype)
			_, _ = w.Write(m.body) // a client gone mid-body is nobody's error
			return
		}
		buf := &bufferedResponse{ResponseWriter: w, code: http.StatusOK}
		h(buf, r)
		w.WriteHeader(buf.code)
		_, _ = w.Write(buf.body.Bytes())
		if buf.code == http.StatusOK {
			last.Store(&memo{r.URL.RawQuery, store, version, w.Header().Get("Content-Type"), buf.body.Bytes()})
		}
	}
}

func (s *Server) metrics() *Metrics {
	if s.Metrics == nil {
		return &Metrics{}
	}
	return s.Metrics
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", obs.ContentTypeJSON)
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", obs.ContentTypeJSON)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

// handleIngest is POST /ingest?format=traces|events[&app=NAME]: traces
// are re-analyzed through the diagnosis pipeline, events are taken as
// they are; either way the resulting events are applied to the store
// idempotently by fingerprint and the IngestSummary is returned as JSON.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	m := s.metrics()
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	start := time.Now()
	fail := func(code int, format string, args ...any) {
		m.IngestErrors.Inc()
		httpError(w, code, format, args...)
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxIngestBody))
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		fail(http.StatusRequestEntityTooLarge, "body exceeds the %d-byte ingest limit", tooBig.Limit)
		return
	}
	if err != nil {
		fail(http.StatusBadRequest, "read body: %v", err)
		return
	}
	app := r.URL.Query().Get("app")
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "traces"
	}

	var events []Event
	switch format {
	case "traces":
		if s.Analyze == nil {
			fail(http.StatusNotImplemented, "trace ingest is not configured (no analyzer)")
			return
		}
		traces, err := trace.Decode(body)
		if err != nil {
			fail(http.StatusBadRequest, "decode traces: %v", err)
			return
		}
		ctx := r.Context()
		if s.Timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.Timeout)
			defer cancel()
		}
		events, err = s.Analyze(ctx, app, traces)
		if err != nil {
			fail(http.StatusUnprocessableEntity, "analyze: %v", err)
			return
		}
	case "events":
		if err := json.Unmarshal(body, &events); err != nil {
			fail(http.StatusBadRequest, "decode events: %v", err)
			return
		}
	default:
		fail(http.StatusBadRequest, "unknown format %q (traces|events)", format)
		return
	}

	sum, err := s.Store.Ingest(events)
	if errors.Is(err, ErrInvalidEvent) {
		fail(http.StatusBadRequest, "ingest: %v", err)
		return
	}
	if errors.Is(err, btree.ErrRecordTooLarge) { // the client's payload, like the body limit
		fail(http.StatusRequestEntityTooLarge, "ingest: %v", err)
		return
	}
	if err != nil {
		fail(http.StatusInternalServerError, "ingest: %v", err)
		return
	}
	m.Batches.Inc()
	m.Stored.Add(int64(sum.Stored))
	m.DedupHits.Add(int64(sum.Deduped))
	m.Events.Set(int64(sum.Events))
	m.IngestLatency.Observe(time.Since(start).Seconds())
	writeJSON(w, sum)
}

// sinceParam resolves ?window=DUR (trailing window ending now) into an
// absolute cutoff; the zero time means all of history.
func (s *Server) sinceParam(r *http.Request) (time.Time, error) {
	win := r.URL.Query().Get("window")
	if win == "" {
		return time.Time{}, nil
	}
	d, err := time.ParseDuration(win)
	if err != nil {
		return time.Time{}, fmt.Errorf("bad window %q: %v", win, err)
	}
	if d < 0 {
		return time.Time{}, fmt.Errorf("bad window %q: negative", win)
	}
	return s.Store.now().UTC().Add(-d), nil
}

func limitParam(r *http.Request) (int, error) {
	l := r.URL.Query().Get("limit")
	if l == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(l)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad limit %q", l)
	}
	return n, nil
}

func wantText(r *http.Request) bool { return r.URL.Query().Get("format") == "text" }

// handleEvents is GET /history/events[?table=&class=&api=&window=&limit=&format=text].
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	since, err := s.sinceParam(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	limit, err := limitParam(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	q := EventQuery{
		Table: r.URL.Query().Get("table"),
		Class: r.URL.Query().Get("class"),
		API:   r.URL.Query().Get("api"),
		Since: since,
		Limit: limit,
	}
	events := s.Store.Events(q)
	if wantText(r) {
		w.Header().Set("Content-Type", obs.ContentTypeText)
		fmt.Fprintf(w, "%d event(s)\n", len(events))
		for _, e := range events {
			fmt.Fprint(w, renderEvent(&e))
		}
		return
	}
	writeJSON(w, events)
}

// handlePatterns is GET /history/patterns[?format=text].
func (s *Server) handlePatterns(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("window") != "" {
		httpError(w, http.StatusBadRequest, "patterns are all-history rollups; window applies to events and tables")
		return
	}
	p := s.Store.Patterns()
	if wantText(r) {
		w.Header().Set("Content-Type", obs.ContentTypeText)
		fmt.Fprint(w, renderPatterns(p))
		return
	}
	writeJSON(w, p)
}

// handleTables is GET /history/tables[?window=24h&format=text].
func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	since, err := s.sinceParam(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	counts := s.Store.TableCounts(since)
	if wantText(r) {
		w.Header().Set("Content-Type", obs.ContentTypeText)
		for _, c := range counts {
			fmt.Fprintf(w, "%-24s %4d event(s) %5d sighting(s)\n", c.Table, c.Events, c.Seen)
		}
		if len(counts) == 0 {
			fmt.Fprintln(w, "no events in window")
		}
		return
	}
	writeJSON(w, counts)
}

// renderEvent formats one event for the text surface.
func renderEvent(e *Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  %-6s %s [%s]  seen %d (first %s, last %s)\n",
		e.Fingerprint, orDash(e.Class), PairKey(e.APIs[0], e.APIs[1]),
		strings.Join(e.Tables, ", "), e.Seen,
		e.FirstSeen.Format(time.RFC3339), e.LastSeen.Format(time.RFC3339))
	for _, t := range e.Txns {
		if t.HoldsSQL == "" && t.WaitsSQL == "" {
			continue
		}
		fmt.Fprintf(&b, "    %s holds %s (%s) waits %s (%s)\n",
			t.API, t.HoldsSQL, orDash(t.HoldsAt), t.WaitsSQL, orDash(t.WaitsAt))
	}
	return b.String()
}

// renderPatterns formats the rollup summary for the text surface.
func renderPatterns(p PatternSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d event(s), %d sighting(s)\n", p.Events, p.Sightings)
	section := func(name string, rs []Rollup) {
		if len(rs) == 0 {
			return
		}
		fmt.Fprintf(&b, "by %s:\n", name)
		for _, r := range rs {
			fmt.Fprintf(&b, "  %-32s %4d event(s) %5d sighting(s)  last %s\n",
				r.Key, r.Events, r.Seen, r.LastSeen.Format(time.RFC3339))
		}
	}
	section("class", p.Classes)
	section("table", p.Tables)
	section("API pair", p.Pairs)
	return b.String()
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
