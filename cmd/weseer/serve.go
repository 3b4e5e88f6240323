package main

// The continuous-diagnosis service: `weseer serve` runs a long-lived
// daemon that ingests trace batches (or already-diagnosed events) over
// HTTP, re-analyzes them through the same three-phase pipeline the
// one-shot commands use, and persists every diagnosed deadlock into an
// append-only history store keyed by the stable core fingerprint. The
// /history/* endpoints answer trend queries across restarts; /metrics
// carries the pipeline funnel and the ingest counters in one registry.
// `weseer ingest` and `weseer history` are thin HTTP clients for the
// daemon, so scripts need no curl; ingest turns an `analyze -json`
// report into events itself, so the wire carries two formats.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"weseer/internal/apps"
	"weseer/internal/btree"
	"weseer/internal/core"
	"weseer/internal/history"
	"weseer/internal/obs"
	"weseer/internal/trace"
)

// cmdServe starts the diagnosis daemon. The first stdout line is the
// service base URL (so scripts can bind port 0 and discover the port);
// the process then serves until SIGINT/SIGTERM.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	store := fs.String("store", "weseer-history.wal", "history store path (append-only log, created if missing)")
	addr := fs.String("addr", "127.0.0.1:0", "listen address (port 0 picks a free port; the bound URL is printed on stdout)")
	defaultApp := fs.String("app", "broadleaf", "application assumed when an ingest request names none (?app=)")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-ingest analysis wall-time bound (0 = none)")
	parseArgs(fs, args)

	st, err := history.Open(*store)
	var fe *btree.FormatError
	if errors.As(err, &fe) {
		return fmt.Errorf("open store: %w; it is left as it was: start on a new -store and re-ingest (a version-1 store is not read)", err)
	}
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	defer st.Close()

	o := newDaemonObserver()
	srv := newHistoryServer(st, o, serveConfig{
		defaultApp: *defaultApp,
		timeout:    *timeout,
	})
	ds, err := obs.StartDebugServer(*addr, o, srv.Routes()...)
	if err != nil {
		return err
	}
	defer ds.Close()

	fmt.Printf("http://%s\n", ds.Addr())
	fmt.Fprintf(os.Stderr, "weseer serve: %d event(s) in %s; POST /ingest, GET /history/{events,patterns,tables}, /metrics\n",
		st.Len(), *store)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "weseer serve: shutting down")
	return nil
}

// serveConfig is the analysis configuration one daemon applies to
// every ingested trace batch.
type serveConfig struct {
	defaultApp string
	timeout    time.Duration
}

// newDaemonObserver is the one observer of a daemon's lifetime: the
// funnel counters accumulate across ingests, next to the history
// instruments. It has no tracer — a daemon has nowhere to export spans
// to, and a tracer only ever grows — and no progress tracker: a phase and
// an ETA belong to one run, and ingests analyze concurrently.
func newDaemonObserver() *obs.Observer {
	return &obs.Observer{Metrics: obs.NewRegistry()}
}

// newHistoryServer wires the history store's HTTP surface over the
// real diagnosis pipeline: each trace batch is resolved through the
// app registry and re-analyzed with AnalyzeContext, and the diagnosed
// deadlocks become history events classified by the app's catalog.
func newHistoryServer(st *history.Store, o *obs.Observer, cfg serveConfig) *history.Server {
	core.RegisterMetrics(o.Metrics) // listed on /metrics from the start, not from the first ingest
	return &history.Server{
		Store:   st,
		Metrics: history.RegisterMetrics(o.Metrics),
		Timeout: cfg.timeout,
		Analyze: func(ctx context.Context, appName string, traces []*trace.Trace) ([]history.Event, error) {
			if appName == "" {
				appName = cfg.defaultApp
			}
			app, err := apps.Open(appName, apps.Options{})
			if err != nil {
				return nil, err
			}
			res, err := core.NewAnalyzer(app.Schema(), core.WithObserver(o)).AnalyzeContext(ctx, traces)
			if err != nil {
				return nil, err
			}
			return history.FromResult(res, appName, app.Classify), nil
		},
	}
}

// serviceURL normalizes an -addr argument ("127.0.0.1:7777",
// "http://127.0.0.1:7777", or a file containing either via "@file")
// into a base URL.
func serviceURL(addr string) (string, error) {
	if strings.HasPrefix(addr, "@") {
		data, err := os.ReadFile(addr[1:])
		if err != nil {
			return "", err
		}
		addr = strings.TrimSpace(strings.SplitN(string(data), "\n", 2)[0])
	}
	if addr == "" {
		return "", fmt.Errorf("no service address (use -addr HOST:PORT or -addr @file)")
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/"), nil
}

// cmdIngest posts a trace file or event JSON to a running daemon and
// prints the ingest summary. Those are the two wire formats: a report —
// `analyze -json` output — is turned into the events it describes here.
func cmdIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	addr := fs.String("addr", "", "service address (HOST:PORT, URL, or @file with the daemon's first stdout line)")
	in := fs.String("i", "traces.json", "input file (collect traces, analyze -json report, or history events)")
	appName := fs.String("app", "", "application the payload came from (daemon default when empty)")
	format := fs.String("format", "traces", "payload format: traces|report|events")
	parseArgs(fs, args)

	base, err := serviceURL(*addr)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	if *format == "report" {
		if data, err = reportEvents(data, *appName); err != nil {
			return err
		}
		*format = "events"
	}
	q := url.Values{}
	q.Set("format", *format)
	if *appName != "" {
		q.Set("app", *appName)
	}
	resp, err := http.Post(base+"/ingest?"+q.Encode(), obs.ContentTypeJSON, bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ingest failed (%s): %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var sum history.IngestSummary
	if err := json.Unmarshal(body, &sum); err != nil {
		return fmt.Errorf("decode summary: %w", err)
	}
	fmt.Printf("ingested %d deadlock(s): %d stored, %d deduplicated; store holds %d event(s)\n",
		sum.Received, sum.Stored, sum.Deduped, sum.Events)
	return nil
}

// reportEvents converts a -json report into the JSON of one history event
// per reported deadlock, attributed to app.
func reportEvents(report []byte, app string) ([]byte, error) {
	var rep struct {
		Reports []jsonDeadlck `json:"deadlocks"`
	}
	if err := json.Unmarshal(report, &rep); err != nil {
		return nil, fmt.Errorf("decode report: %w", err)
	}
	events := []history.Event{}
	for _, d := range rep.Reports {
		events = append(events, history.Event{
			Fingerprint: d.Fingerprint,
			App:         app,
			Class:       d.Catalog,
			APIs:        d.APIs,
			Tables:      d.Tables[:],
			Txns:        d.Txns,
			Count:       d.Count,
		})
	}
	return json.Marshal(events)
}

// cmdHistory queries a running daemon: `weseer history [-addr A]
// patterns|events|tables [flags]` fetches the matching /history/*
// endpoint and prints the response.
func cmdHistory(args []string) error {
	fs := flag.NewFlagSet("history", flag.ExitOnError)
	addr := fs.String("addr", "", "service address (HOST:PORT, URL, or @file with the daemon's first stdout line)")
	format := fs.String("format", "text", "output format: text|json")
	window := fs.Duration("window", 0, "events, tables: restrict to events last seen within this trailing window (0 = all)")
	table := fs.String("table", "", "events: filter by table")
	class := fs.String("class", "", "events: filter by anti-pattern class")
	api := fs.String("api", "", "events: filter by API")
	limit := fs.Int("limit", 0, "events: cap the result count (0 = all)")
	// The query kind may sit anywhere among the flags (`weseer history
	// events -class d3`, `... -addr A events -format json`): stdlib
	// flag parsing stops at the first positional argument, so the flags
	// after it are parsed again, and a second positional is a usage error.
	what := "patterns"
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) > 0 {
		what, rest = rest[0], rest[1:]
	}
	parseArgs(fs, rest)
	if *format != "text" && *format != "json" {
		usageFail(fs, "-format %q: want text or json", *format)
	}
	base, err := serviceURL(*addr)
	if err != nil {
		return err
	}
	q := url.Values{}
	q.Set("format", *format)
	if *window > 0 {
		if what == "patterns" {
			return fmt.Errorf("-window applies to events and tables; patterns are all-history rollups")
		}
		q.Set("window", window.String())
	}
	switch what {
	case "patterns", "tables":
	case "events":
		for k, v := range map[string]string{"table": *table, "class": *class, "api": *api} {
			if v != "" {
				q.Set(k, v)
			}
		}
		if *limit > 0 {
			q.Set("limit", fmt.Sprint(*limit))
		}
	default:
		return fmt.Errorf("unknown query %q (patterns|events|tables)", what)
	}
	resp, err := http.Get(base + "/history/" + what + "?" + q.Encode())
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("query failed (%s): %s", resp.Status, strings.TrimSpace(string(body)))
	}
	os.Stdout.Write(body)
	return nil
}
