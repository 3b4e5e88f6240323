package main

// The serve-cycle workload: one long-lived process wired the way `weseer
// serve` wires it — history.Server's routes on the obs debug server, on
// loopback, over one connection — on a store that already holds a
// production-sized history. One op is a daemon's day in small: re-ingest
// the trace batch (re-analysis, must store nothing new), ingest fifty
// novel events, answer sixty queries, then shut down and come back up
// from the same write-ahead log.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/btree"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/history"
	"weseer/internal/obs"
	"weseer/internal/trace"
)

const (
	queriesPerKind  = 20    // GETs of each of the three query shapes per op
	ingestBatch     = 1000  // events per Store.Ingest call (one fsync each)
	logProbeFrames  = 10000 // frames the btree.Log probe appends and reloads
	logProbePayload = 200   // bytes per probe frame, about one touch record
)

type serveWorkload struct {
	cfg     *config
	spec    string // the generated app whose traces are re-ingested
	payload []byte // its trace batch as JSON
	dir     string
	path    string
	rng     *rand.Rand
	nextID  int // synthetic events minted so far

	store  *history.Store
	obs    *obs.Observer
	server *obs.DebugServer
	client *http.Client
	base   string
	cur    atomic.Pointer[spanCtx] // where the running request's analysis hangs its span
	latest atomic.Pointer[core.Result]

	digest string
	mem0   memUse // at the start of the traced stretch
	ops    int    // correct ops of the latest stretch
	// The store after sizes.serveSizeAtOp ops of the latest stretch (after
	// all of them when it had fewer).
	events   int
	logBytes int64
}

// spanCtx carries the running request's span to the analysis callback,
// which the HTTP server calls on its own goroutine.
type spanCtx struct {
	tr         *tracer
	parent, op int
}

func newServeWorkload(cfg *config) *serveWorkload {
	return &serveWorkload{cfg: cfg, spec: fmt.Sprintf("gen:%d,templates=%d", cfg.seed, cfg.size.serveTemplates)}
}

// syntheticEvents mints n history events no earlier call returned. They
// use their own class and table names so the generated app's rollups stay
// recognisable among them.
func (w *serveWorkload) syntheticEvents(n int) []history.Event {
	out := make([]history.Event, n)
	for i := range out {
		w.nextID++
		api := func() string { return fmt.Sprintf("SynApi%d", w.rng.Intn(40)) }
		tables := []string{fmt.Sprintf("SynTable%02d", w.rng.Intn(60)), fmt.Sprintf("SynTable%02d", w.rng.Intn(60))}
		sort.Strings(tables)
		a, b := api(), api()
		out[i] = history.Event{
			Fingerprint: fmt.Sprintf("syn-%08d-%08x", w.nextID, w.rng.Uint32()),
			App:         "synthetic",
			Class:       fmt.Sprintf("syn%d", w.rng.Intn(8)),
			APIs:        [2]string{a, b},
			Tables:      tables,
			Txns: [2]history.TxnLock{
				{API: a, HoldsSQL: "UPDATE " + tables[0] + " SET V = ? WHERE ID = ?", WaitsSQL: "SELECT * FROM " + tables[1] + " WHERE ID = ?"},
				{API: b, HoldsSQL: "UPDATE " + tables[1] + " SET V = ? WHERE ID = ?", WaitsSQL: "SELECT * FROM " + tables[0] + " WHERE ID = ?"},
			},
			Count: 1 + w.rng.Intn(5),
		}
	}
	return out
}

func (w *serveWorkload) setup() error {
	cfg := w.cfg
	w.rng = rand.New(rand.NewSource(cfg.seed))
	w.nextID, w.digest = 0, ""
	app, err := apps.Open(w.spec, apps.Options{})
	if err != nil {
		return err
	}
	traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
	if err != nil {
		return err
	}
	if w.payload, err = json.Marshal(traces); err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return err
	}
	if w.dir, err = os.MkdirTemp(cfg.scratch, "serve-"); err != nil {
		return err
	}
	w.path = filepath.Join(w.dir, "history.wal")
	if w.store, err = history.Open(w.path); err != nil {
		return err
	}
	for left := cfg.size.storeEvents; left > 0; left -= ingestBatch {
		if _, err := w.store.Ingest(w.syntheticEvents(min(left, ingestBatch))); err != nil {
			return err
		}
	}
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	if err := w.startServer(); err != nil {
		return err
	}
	// The first trace ingest stores the batch's fingerprints; every later
	// one must find them all present.
	first, err := w.ingest(nil, "traces", w.payload)
	if err != nil {
		return err
	}
	if first.Stored == 0 || first.Stored != first.Received ||
		(cfg.seed == genPinnedAt && first.Stored != genDeadlocks) {
		return fmt.Errorf("first trace ingest stored %d of %d received (seed %d)", first.Stored, first.Received, cfg.seed)
	}
	for i := 0; i < cfg.size.warmServe; i++ {
		if s := w.op(nil, -1); s.err != nil {
			return fmt.Errorf("warm-up: %w", s.err)
		}
	}
	return nil
}

// startServer mounts the history routes on a debug server exactly as
// cmd/weseer's serve command does: one observer for the daemon's life,
// the app resolved through the registry on every ingest, the analysis at
// the daemon's default worker count with the observer attached.
func (w *serveWorkload) startServer() error {
	w.obs = obs.NewObserver()
	srv := &history.Server{
		Store:   w.store,
		Metrics: history.RegisterMetrics(w.obs.Metrics),
		Timeout: 2 * time.Minute,
		Analyze: func(ctx context.Context, appName string, traces []*trace.Trace) ([]history.Event, error) {
			if c := w.cur.Load(); c != nil {
				_, end := c.tr.start("core.analyze", c.parent, c.op)
				defer end()
			}
			app, err := apps.Open(appName, apps.Options{})
			if err != nil {
				return nil, err
			}
			res, err := core.NewAnalyzer(app.Schema(), core.WithObserver(w.obs)).AnalyzeContext(ctx, traces)
			if err != nil {
				return nil, err
			}
			w.latest.Store(res)
			return history.FromResult(res, appName, app.Classify), nil
		},
	}
	ds, err := obs.StartDebugServer("127.0.0.1:0", w.obs, srv.Routes()...)
	if err != nil {
		return err
	}
	w.server, w.base = ds, "http://"+ds.Addr()
	return nil
}

func (w *serveWorkload) stopServer() error {
	w.client.CloseIdleConnections()
	err := w.server.Close()
	if cerr := w.store.Close(); err == nil {
		err = cerr
	}
	w.server, w.store = nil, nil
	return err
}

func (w *serveWorkload) close() error {
	if w.server == nil {
		return nil
	}
	err := w.stopServer()
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}

// request performs one HTTP exchange and returns the 200 body.
func (w *serveWorkload) request(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, w.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", obs.ContentTypeJSON)
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
	}
	return data, nil
}

func (w *serveWorkload) ingest(span func(string, func()), format string, body []byte) (history.IngestSummary, error) {
	var sum history.IngestSummary
	var data []byte
	var err error
	call := func() {
		data, err = w.request(http.MethodPost, "/ingest?format="+format+"&app="+url.QueryEscape(w.spec), body)
	}
	if span == nil {
		call()
	} else {
		span("history.ingest_"+format, call)
	}
	if err != nil {
		return sum, err
	}
	return sum, json.Unmarshal(data, &sum)
}

func (w *serveWorkload) op(tr *tracer, id int) opSample {
	t0 := time.Now()
	opSpan, endOp := tr.start("op", -1, id)
	err := w.cycle(func(name string, fn func()) {
		sid, end := tr.start(name, opSpan, id)
		w.cur.Store(&spanCtx{tr, sid, id})
		fn()
		end()
	})
	w.cur.Store(nil)
	endOp()
	return opSample{wallS: time.Since(t0).Seconds(), err: err}
}

// cycle is one op; span wraps each call into the service.
func (w *serveWorkload) cycle(span func(string, func())) error {
	traces, err := w.ingest(span, "traces", w.payload)
	if err != nil {
		return err
	}
	if traces.Stored != 0 || traces.Deduped != traces.Received {
		return fmt.Errorf("trace re-ingest stored %d, deduplicated %d of %d", traces.Stored, traces.Deduped, traces.Received)
	}
	novel, err := json.Marshal(w.syntheticEvents(eventsPerCycle))
	if err != nil {
		return err
	}
	events, err := w.ingest(span, "events", novel)
	if err != nil {
		return err
	}
	if events.Stored != eventsPerCycle {
		return fmt.Errorf("event ingest stored %d, want %d", events.Stored, eventsPerCycle)
	}

	var patterns history.PatternSummary
	for _, q := range []struct {
		name, path string
		into       func() any
	}{
		{"history.query_patterns", "/history/patterns", func() any { return &patterns }},
		{"history.query_events", "/history/events?table=SynTable07&limit=100", func() any { return new([]history.Event) }},
		{"history.query_tables", "/history/tables?window=1h", func() any { return new([]history.TableCount) }},
	} {
		for i := 0; i < queriesPerKind; i++ {
			var data []byte
			span(q.name, func() { data, err = w.request(http.MethodGet, q.path, nil) })
			if err != nil {
				return err
			}
			span("bench.oracle", func() { err = json.Unmarshal(data, q.into()) })
			if err != nil {
				return fmt.Errorf("GET %s: %w", q.path, err)
			}
		}
	}
	classes := map[string]int{}
	for _, r := range patterns.Classes {
		if !strings.HasPrefix(r.Key, "syn") {
			classes[r.Key] = r.Events
		}
	}
	if err := checkClasses(classes, genClasses, nil); err != nil {
		return fmt.Errorf("/history/patterns: %v", err)
	}

	before := w.store.Len()
	span("history.reopen", func() {
		if err = w.stopServer(); err != nil {
			return
		}
		if w.store, err = history.Open(w.path); err != nil {
			return
		}
		err = w.startServer()
	})
	if err != nil {
		return err
	}
	if w.store.Len() != before {
		return fmt.Errorf("store holds %d events after reopen, %d before", w.store.Len(), before)
	}

	// What must not change from op to op: the batch's dedup outcome and
	// the diagnosed classes with their event counts.
	digest := fmt.Sprint(traces.Received, traces.Deduped, classes)
	if w.digest == "" {
		w.digest = digest
	} else if digest != w.digest {
		return fmt.Errorf("op outcome %s differs from the first op's %s", digest, w.digest)
	}
	return nil
}

func (w *serveWorkload) run(d time.Duration, tr *tracer) runStats {
	if tr != nil {
		w.mem0 = readMemUse()
	}
	n, rss := 0, 0.0
	rs := inProcess(func() runStats {
		return closedLoop(d, tr, w.cfg.ref, func(tr *tracer, id int) opSample {
			s := w.op(tr, id)
			if n++; n <= w.cfg.size.serveSizeAtOp {
				_, rss = selfUsage()
				w.events, w.logBytes = w.store.Len(), w.store.Size()
			}
			return s
		})
	})
	rs.peakRSSMB = rss
	w.ops = len(rs.walls) + len(rs.plain)
	return rs
}

// probes times the store, log, codec and HTTP layers next to the ops.
func (w *serveWorkload) probes(tr *tracer, m map[string]float64) error {
	if err := diagProbes(w.cfg, tr, probeSpecs{specs: []string{w.spec}}, m); err != nil {
		return err
	}
	var err error
	m["obs.http_roundtrip_s"] = tr.timed("obs.http_roundtrip", -1, -1, func() {
		_, err = w.request(http.MethodGet, "/metrics", nil)
	})
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp(w.cfg.scratch, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := history.Open(filepath.Join(dir, "store.wal"))
	if err != nil {
		return err
	}
	batch := w.syntheticEvents(ingestBatch)
	d := tr.timed("history.store_ingest", -1, -1, func() { _, err = st.Ingest(batch) })
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	m["history.store_events_per_s"] = ratio(ingestBatch, d)

	logPath := filepath.Join(dir, "probe.log")
	frame := bytes.Repeat([]byte{'x'}, logProbePayload)
	m["btree.log_append_s"] = tr.timed("btree.log_append", -1, -1, func() {
		var l *btree.Log
		if l, err = btree.OpenLog(logPath, func([]byte) error { return nil }); err != nil {
			return
		}
		for i := 0; i < logProbeFrames && err == nil; i++ {
			err = l.Append(frame)
		}
		if cerr := l.Close(); err == nil {
			err = cerr
		}
	})
	if err != nil {
		return err
	}
	frames := 0
	m["btree.log_reload_s"] = tr.timed("btree.log_reload", -1, -1, func() {
		var l *btree.Log
		if l, err = btree.OpenLog(logPath, func([]byte) error { frames++; return nil }); err == nil {
			err = l.Close()
		}
	})
	if err == nil && frames != logProbeFrames {
		err = fmt.Errorf("log probe reloaded %d of %d frames", frames, logProbeFrames)
	}
	return err
}

func (w *serveWorkload) layers(spans []span, m map[string]float64) {
	for metric, name := range map[string]string{
		"history.ingest_traces_s":  "history.ingest_traces",
		"history.ingest_events_s":  "history.ingest_events",
		"history.query_patterns_s": "history.query_patterns",
		"history.query_events_s":   "history.query_events",
		"history.query_tables_s":   "history.query_tables",
		"history.reopen_s":         "history.reopen",
		"core.analyze_s":           "core.analyze",
	} {
		m[metric] = perOpP50(spans, name, false)
	}
	m["history.events"] = float64(w.events)
	m["history.log_bytes"] = float64(w.logBytes)
	m["history.bytes_per_event"] = ratio(float64(w.logBytes), float64(w.events))
	if res := w.latest.Load(); res != nil {
		statsMetrics(res.Stats, m)
		m["core.deadlocks"] = float64(len(res.Deadlocks))
	}
	memLayers(w.mem0, w.ops, m)
}

// memLayers reports what the Go runtime spent on ops timed ops since
// setup ended.
func memLayers(before memUse, ops int, m map[string]float64) {
	after := readMemUse()
	n := float64(max(ops, 1))
	m["go.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / n
	m["go.alloc_mb_per_op"] = float64(after.AllocBytes-before.AllocBytes) / (1 << 20) / n
	m["go.gc_cpu_share"] = after.GCCPUShare
	m["go.heap_live_mb_end"] = after.HeapLiveMB
	m["go.heap_growth_mb_per_op"] = (after.HeapLiveMB - before.HeapLiveMB) / n
}
