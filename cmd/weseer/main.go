// Command weseer runs WeSEER's deadlock diagnosis pipeline over the
// bundled model applications: it collects transaction traces by running
// the apps' API unit tests under concolic execution, analyzes them with
// the three-phase diagnosis, and prints the deadlock report.
//
// Usage:
//
//	weseer run     -app NAME [-apply f2,f5|all] [-fixplan] [-coarse] [-plans] [-timeout D] [-json] [-reproduce] [-v] [observability flags]
//	weseer collect -app NAME [-apply f2,f5|all] -o traces.json
//	weseer analyze -app NAME -i traces.json [-fixplan] [-coarse] [-timeout D] [-json] [-v] [observability flags]
//	weseer vet     [-app NAME|none] [-json] [-fail-on info|warn|error] [-canonical-order] [dir ...]
//	weseer serve   -store FILE [-addr HOST:PORT] [-app NAME] [-timeout D]
//	weseer ingest  -addr HOST:PORT|@file -i traces.json [-app NAME] [-format traces|report|events]
//	weseer history -addr HOST:PORT|@file [patterns|events|tables] [-window D] [-format text|json]
//
// NAME is resolved through the application registry (internal/apps):
// the bundled model apps ("broadleaf", "shopizer") and the synthetic
// corpus generator ("gen:<seed>[,templates=N,...]" — see internal/appgen
// for the knobs). `weseer run` with no -app defaults to broadleaf.
//
// Observability flags ("run" and "analyze"): -debug-addr ADDR serves
// /metrics (Prometheus text), /progress (phase, chains done/total,
// ETA), and /debug/pprof/* live during the run; -trace-out FILE writes
// a Chrome trace_event JSON (open in chrome://tracing or Perfetto; `jq
// .traceEvents[]` is the flat view); -metrics-out FILE writes the final
// metrics in Prometheus text format. Telemetry is observational only —
// the report is identical with or without it.
//
// "run" pipes collection into analysis; "collect"/"analyze" split the
// stages through a JSON trace file (Fig. 2's trace hand-off). -plans
// restricts lock modeling to recorded execution plans and -reproduce
// replays every report against a live database — the paper's two
// Sec. V-D future-work items. A trace file records each statement's call
// stack to a fixed depth, down to cmdCollect's (and main's) frame in this
// file, so the bytes `collect -o` writes change when those two calls move.
//
// -apply applies fixes to the app before collection, by name from the
// app's own catalog (f1..f8 for broadleaf, f9..f11 for shopizer, planted
// class names for gen corpora); "all" applies every one. -fixplan
// computes the cross-API canonical lock order from the collected traces
// and adds to the text report the ranked lock-order fixes and the ranked
// fix plan (internal/fixapply): which fixes to apply, in what order,
// which deadlock fingerprints each targets and which reorder suggestion
// backs it — the input to the weseer-bench fixgain verification loop.
// With -json the order travels as canonical_order. It needs no other
// flag.
//
// Phase 3 runs on GOMAXPROCS workers (GOMAXPROCS=1 for one); the report
// is identical at any setting. -timeout bounds the analysis wall time
// (e.g. 30s), and ctrl-C cancels it; either way the partial report
// gathered so far is printed (with "partial": true under -json) and the
// command exits 3. -json emits the machine-readable report
// (funnel stats including solver calls and memo hits, plus one entry
// per deadlock) instead of text.
//
// "vet" runs the static analyzers alone — no trace collection, no
// solver: the template-level deadlock pre-screen and the Go-source
// ORM-misuse lint over the given directories (default: the app's
// source directory), each loaded and type-checked once, whole-program.
// -canonical-order additionally merges every vetted
// directory's templates into one lock-order graph and reports the
// canonical global acquisition order plus ranked feedback-edge reorder
// suggestions (the paper's f9–f11-style fixes). Exit status: 0 clean,
// 1 findings at or above -fail-on, 2 usage error.
//
// "serve" runs the continuous-diagnosis daemon: ingested trace batches
// are re-analyzed through the same pipeline and every diagnosed
// deadlock is persisted — keyed by its stable fingerprint — into an
// append-only history store that survives restarts, with per-table,
// per-class, and per-API-pair rollups maintained incrementally.
// Re-ingesting a corpus is idempotent: known fingerprints only bump
// sighting counts. The daemon prints its base URL as the first stdout
// line (bind -addr with port 0 to pick a free port) and serves the
// obs debug endpoints alongside POST /ingest and the /history/*
// queries. "ingest" and "history" are the matching HTTP clients;
// their -addr accepts HOST:PORT, a URL, or @file pointing at a file
// whose first line is the daemon's printed URL.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"time"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/fixapply"
	"weseer/internal/history"
	"weseer/internal/minidb"
	"weseer/internal/obs"
	"weseer/internal/replay"
	"weseer/internal/schema"
	"weseer/internal/staticlint"
	"weseer/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "collect":
		err = cmdCollect(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "vet":
		err = cmdVet(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "ingest":
		err = cmdIngest(os.Args[2:])
	case "history":
		err = cmdHistory(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if errors.Is(err, errPartial) {
		os.Exit(3) // analyzeCtx has said why on stderr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "weseer:", err)
		os.Exit(1)
	}
}

// errPartial is what "run" and "analyze" return after printing the report
// of an analysis cut short by -timeout or ctrl-C: they exit 3, so that a
// script can tell a partial report from a complete one.
var errPartial = errors.New("partial report")

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  weseer run     -app NAME [-apply f2,f5|all] [-fixplan] [-coarse] [-plans] [-timeout D] [-json] [-reproduce] [-v] [obs flags]
  weseer collect -app NAME [-apply f2,f5|all] -o traces.json
  weseer analyze -app NAME -i traces.json [-fixplan] [-coarse] [-timeout D] [-json] [-v] [obs flags]
  weseer vet     [-app NAME|none] [-json] [-fail-on info|warn|error] [-canonical-order] [dir ...]
  weseer serve   -store FILE [-addr HOST:PORT] [-app NAME] [-timeout D]
  weseer ingest  -addr HOST:PORT|@file -i traces.json [-app NAME] [-format traces|report|events]
  weseer history -addr HOST:PORT|@file [patterns|events|tables] [-window D] [-format text|json]

registered applications (-app):
`+apps.Usage("  ")+`
observability flags (run/analyze): -debug-addr :6060  -trace-out run.trace.json
  -metrics-out run.metrics.prom
-fixplan (run/analyze) adds the ranked lock-order fixes and the fix plan to the
  report (canonical_order under -json)
`)
}

// analysisFlags are the flags "run" and "analyze" share: how to analyze
// the traces and what to print of the result.
type analysisFlags struct {
	coarse  *bool
	timeout *time.Duration
	jsonOut *bool
	fixplan *bool
	verbose *bool
	obs     *obsFlags
}

func registerAnalysisFlags(fs *flag.FlagSet) *analysisFlags {
	return &analysisFlags{
		coarse:  fs.Bool("coarse", false, "STEPDAD/REDACT-style coarse baseline (no SMT)"),
		timeout: fs.Duration("timeout", 0, "bound the analysis wall time (0 = none)"),
		jsonOut: fs.Bool("json", false, "emit the machine-readable report instead of text"),
		fixplan: fs.Bool("fixplan", false, "print the ranked lock-order fixes and the fix plan (internal/fixapply) with the report"),
		verbose: fs.Bool("v", false, "print every deadlock report"),
		obs:     registerObsFlags(fs),
	}
}

// report is the shared tail of "run" and "analyze": analyze the traces
// under the flags (plus the caller's extra options), compute the canonical
// lock order beside the result when -fixplan wants it, and print the
// report as text or JSON. The result is returned for "run -reproduce";
// after a partial report the error is errPartial.
func (f *analysisFlags) report(app apps.App, traces []*trace.Trace, o *obs.Observer, opts ...core.Option) (*core.Result, error) {
	if *f.coarse {
		opts = append(opts, core.WithCoarseOnly())
	}
	if o != nil {
		opts = append(opts, core.WithObserver(o))
	}
	res, partial, err := analyzeCtx(app, traces, *f.timeout, opts)
	if err != nil {
		return nil, err
	}
	var co *staticlint.CanonicalOrder
	if *f.fixplan {
		co = staticlint.CanonicalizeTraces(traces, app.Schema())
	}
	if *f.jsonOut {
		err = printJSON(res, co, app.Classify, partial)
	} else {
		printReport(res, co, app, *f.verbose)
		if *f.fixplan {
			plan := fixapply.Plan(app, res)
			for i := range plan {
				plan[i].SuggestionRank = co.Rank(plan[i].APIs)
			}
			fmt.Println()
			fmt.Print(fixapply.Render(plan))
		}
	}
	if err == nil && partial {
		err = errPartial
	}
	return res, err
}

// obsFlags are the observability flags of "run" and "analyze".
type obsFlags struct {
	debugAddr  *string
	traceOut   *string
	metricsOut *string
}

func registerObsFlags(fs *flag.FlagSet) *obsFlags {
	return &obsFlags{
		debugAddr:  fs.String("debug-addr", "", "serve /metrics, /progress, and /debug/pprof on this address during the run (e.g. :6060)"),
		traceOut:   fs.String("trace-out", "", "write a Chrome trace_event JSON span file (open in chrome://tracing or Perfetto)"),
		metricsOut: fs.String("metrics-out", "", "write the final metrics in Prometheus text format"),
	}
}

// setup creates an observer (nil when no observability flag is set) and
// returns a finish func that writes the requested export files and
// stops the debug server. The finish func is safe to call exactly once.
func (f *obsFlags) setup() (*obs.Observer, func() error, error) {
	noop := func() error { return nil }
	if *f.debugAddr == "" && *f.traceOut == "" && *f.metricsOut == "" {
		return nil, noop, nil
	}
	o := obs.NewObserver()
	var ds *obs.DebugServer
	if *f.debugAddr != "" {
		var err error
		ds, err = obs.StartDebugServer(*f.debugAddr, o)
		if err != nil {
			return nil, noop, err
		}
		fmt.Fprintf(os.Stderr, "weseer: debug endpoint on http://%s (/metrics /progress /debug/pprof)\n", ds.Addr())
	}
	finish := func() error {
		var firstErr error
		keep := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if *f.traceOut != "" {
			keep(writeFileWith(*f.traceOut, o.Tracer.WriteChromeTrace))
		}
		if *f.metricsOut != "" {
			keep(writeFileWith(*f.metricsOut, o.Metrics.WritePrometheus))
		}
		keep(ds.Close())
		return firstErr
	}
	return o, finish, nil
}

func writeFileWith(path string, write func(io.Writer) error) error {
	fl, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(fl); err != nil {
		fl.Close()
		return err
	}
	return fl.Close()
}

// openApp resolves -app/-apply through the application registry; -apply
// is "" for none, "f2,f9" for those fixes, "all" for every one.
func openApp(name, apply string, db minidb.Config) (apps.App, error) {
	var fixes []string
	for _, part := range strings.Split(apply, ",") {
		if part = strings.TrimSpace(part); part != "" {
			fixes = append(fixes, part)
		}
	}
	return apps.Open(name, apps.Options{Apply: fixes, DB: db})
}

func cmdRun(args []string) (err error) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	appName := fs.String("app", "broadleaf", "application to diagnose")
	apply := fs.String("apply", "", "comma-separated fix names to apply before collecting (e.g. f2,f5, or all)")
	plans := fs.Bool("plans", false, "restrict lock modeling to recorded execution plans (Sec. V-D)")
	reproduce := fs.Bool("reproduce", false, "replay every report against a live database (Sec. V-D; text reports only)")
	af := registerAnalysisFlags(fs)
	parseArgs(fs, args)
	if *reproduce && (*af.jsonOut || *af.coarse) {
		fmt.Fprintln(os.Stderr, "weseer run: -reproduce replays the text report; it cannot be combined with -json or -coarse")
		os.Exit(2)
	}

	app, err := openApp(*appName, *apply, minidb.Config{})
	if err != nil {
		return err
	}
	o, obsDone, err := af.obs.setup()
	if err != nil {
		return err
	}
	defer func() {
		if e := obsDone(); e != nil && err == nil {
			err = e
		}
	}()
	var collectOpts []concolic.Option
	if o != nil {
		collectOpts = append(collectOpts, concolic.WithObserver(o))
	}
	traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic, collectOpts...)
	if err != nil {
		return err
	}
	if !*af.jsonOut {
		fmt.Printf("collected %d traces:\n", len(traces))
		for _, tr := range traces {
			fmt.Printf("  %-10s %2d txns, %2d statements, %3d path conditions\n",
				tr.API, len(tr.Txns), tr.Stats.Statements, tr.Stats.PathConds)
		}
	}
	var opts []core.Option
	if *plans {
		opts = append(opts, core.WithConcretePlans())
	}
	res, err := af.report(app, traces, o, opts...)
	if err != nil || *af.jsonOut {
		return err
	}
	if *reproduce {
		fmt.Println("\nautomatic reproduction (replaying each cycle against a rebuilt database):")
		outcomes := replay.ReproduceReport(res, func() (*minidb.DB, []appkit.UnitTest) {
			fresh, _ := openApp(*appName, *apply, minidb.Config{})
			return fresh.DB(), fresh.UnitTests()
		})
		counts := map[replay.Status]int{}
		for _, o := range outcomes {
			counts[o.Status]++
		}
		fmt.Printf("  %d DEADLOCKED, %d blocked, %d no-conflict, %d setup-failed (of %d reports)\n",
			counts[replay.Deadlocked], counts[replay.Blocked],
			counts[replay.NoConflict], counts[replay.SetupFailed], len(outcomes))
	}
	return nil
}

// cmdCollect writes the traces of one app configuration to a JSON trace
// file, the input of "analyze -i" and of "ingest". Collection always
// prunes path conditions as Sec. IV does; `weseer-bench -exp pruning`
// measures what that saves.
func cmdCollect(args []string) error {
	fs := flag.NewFlagSet("collect", flag.ExitOnError)
	appName := fs.String("app", "broadleaf", "application to diagnose")
	apply := fs.String("apply", "", "comma-separated fix names to apply (e.g. f2,f5, or all)")
	out := fs.String("o", "traces.json", "output file")
	parseArgs(fs, args)

	app, err := openApp(*appName, *apply, minidb.Config{})
	if err != nil {
		return err
	}
	traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
	if err != nil {
		return err
	}
	data, err := json.Marshal(traces)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	total := 0
	for _, tr := range traces {
		total += tr.Stats.PathConds
	}
	fmt.Printf("wrote %d traces (%d path conditions) to %s\n", len(traces), total, *out)
	return nil
}

func cmdAnalyze(args []string) (err error) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	appName := fs.String("app", "broadleaf", "application the traces came from")
	in := fs.String("i", "traces.json", "input trace file")
	af := registerAnalysisFlags(fs)
	parseArgs(fs, args)

	app, err := apps.Open(*appName, apps.Options{})
	if err != nil {
		return err
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	traces, err := trace.Decode(data)
	if err != nil {
		return err
	}
	o, obsDone, err := af.obs.setup()
	if err != nil {
		return err
	}
	defer func() {
		if e := obsDone(); e != nil && err == nil {
			err = e
		}
	}()
	_, err = af.report(app, traces, o)
	return err
}

// parseArgs parses the flags of a subcommand that takes no arguments: one
// left over is a usage error, not something to ignore. So is a negative
// number: every numeric flag is a bound or a count, and 0 already means
// "none".
func parseArgs(fs *flag.FlagSet, args []string) {
	fs.Parse(args)
	if fs.NArg() > 0 {
		usageFail(fs, "unexpected argument %q", fs.Arg(0))
	}
	fs.Visit(func(f *flag.Flag) {
		g, ok := f.Value.(flag.Getter)
		if !ok {
			return
		}
		switch v := g.Get().(type) {
		case int:
			if v < 0 {
				usageFail(fs, "-%s %d: must not be negative", f.Name, v)
			}
		case time.Duration:
			if v < 0 {
				usageFail(fs, "-%s %v: must not be negative", f.Name, v)
			}
		}
	})
}

// usageFail reports a usage error — the message, then the subcommand's
// usage — and exits 2.
func usageFail(fs *flag.FlagSet, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "weseer %s: %s\n", fs.Name(), fmt.Sprintf(format, args...))
	fs.Usage()
	os.Exit(2)
}

// analyzeCtx runs the diagnosis under ctrl-C cancellation and an
// optional deadline. On interruption it notes so on stderr and returns
// the partial result with partial set: a truncated funnel is more useful
// than nothing when a run is cut short, as long as it is marked.
func analyzeCtx(app apps.App, traces []*trace.Trace, timeout time.Duration, opts []core.Option) (res *core.Result, partial bool, err error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	res, err = core.NewAnalyzer(app.Schema(), opts...).AnalyzeContext(ctx, traces)
	switch {
	case err == nil:
		return res, false, nil
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "weseer: interrupted — printing partial report")
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintf(os.Stderr, "weseer: %v timeout hit — printing partial report\n", timeout)
	default:
		return nil, false, err
	}
	return res, true, nil
}

// cmdVet runs the static analyzers (internal/staticlint) over source
// directories: no unit tests, no trace collection, no solver. -app
// attaches the named application's schema so the schema-aware templates
// (Find's point SELECT, a buffered Set's UPDATE) can be synthesized;
// "none" vets schema-free.
func cmdVet(args []string) error {
	fs := flag.NewFlagSet("vet", flag.ExitOnError)
	appName := fs.String("app", "none", "schema to attach (a registry name, or none)")
	jsonOut := fs.Bool("json", false, "emit the versioned JSON report instead of text")
	failOn := fs.String("fail-on", "error", "exit 1 when findings reach this severity (info|warn|error)")
	canonical := fs.Bool("canonical-order", false, "derive the cross-API canonical lock order over every vetted directory and report ranked reorder suggestions")
	fs.Parse(args)

	threshold, err := staticlint.ParseSeverity(*failOn)
	if err != nil {
		fmt.Fprintln(os.Stderr, "weseer vet:", err)
		os.Exit(2)
	}
	var scm *schema.Schema
	var defaultDir string
	if *appName != "none" {
		app, err := apps.Open(*appName, apps.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "weseer vet: %v (or \"none\")\n", err)
			os.Exit(2)
		}
		scm = app.Schema()
		if s, ok := app.(apps.Sourcer); ok {
			defaultDir = s.SourceDir()
		}
	}
	dirs := fs.Args()
	if len(dirs) == 0 {
		if defaultDir == "" {
			fmt.Fprintln(os.Stderr, "weseer vet: no directories given (and the app provides no source directory)")
			os.Exit(2)
		}
		dirs = []string{defaultDir}
	}

	var findings []staticlint.Finding
	var shapes []staticlint.TxnShape
	for _, dir := range dirs {
		prog, err := staticlint.Load(dir)
		if err != nil {
			return err
		}
		findings = append(findings, prog.Findings(scm)...)
		if *canonical {
			shapes = append(shapes, prog.Shapes(scm)...)
		}
	}
	staticlint.Sort(findings)
	// The canonical order merges every vetted directory's templates into
	// one graph, so cross-package (cross-app) disagreements surface too.
	var co *staticlint.CanonicalOrder
	if *canonical {
		co = staticlint.CanonicalizeShapes(shapes, scm)
	}

	if *jsonOut {
		data, err := staticlint.EncodeReport(findings, co)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	} else {
		for _, f := range findings {
			fmt.Println(f.String())
		}
		fmt.Printf("%d finding(s)\n", len(findings))
		if co != nil {
			fmt.Print(co.Render())
		}
	}
	if max, ok := staticlint.MaxSeverity(findings); ok && max >= threshold {
		os.Exit(1)
	}
	return nil
}

// jsonReport is the machine-readable analysis report (-json). Version
// bumps whenever a field changes meaning.
type jsonReport struct {
	Version int `json:"version"`
	// Partial marks the report of an analysis cut short (-timeout,
	// ctrl-C); absent from a complete one.
	Partial bool          `json:"partial,omitempty"`
	Stats   statsObject   `json:"stats"`
	Reports []jsonDeadlck `json:"deadlocks"`
	// Canonical carries the cross-API lock-order canonicalization —
	// the global acquisition order and the ranked reorder suggestions —
	// when the run asked for -fixplan; absent otherwise.
	Canonical *staticlint.CanonicalOrder `json:"canonical_order,omitempty"`
}

// statsObject is core.Stats as the -json stats object: one key per
// core.StatsTable row that names one, in table order.
type statsObject core.Stats

func (s statsObject) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for i := range core.StatsTable {
		row := &core.StatsTable[i]
		if row.JSON == "" {
			continue
		}
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, row.JSON)
		b = append(b, ':')
		b = strconv.AppendInt(b, row.JSONValue((*core.Stats)(&s)), 10)
	}
	return append(b, '}'), nil
}

type jsonDeadlck struct {
	// Fingerprint is the deadlock's stable identity (core.Fingerprint):
	// the history store's dedup key, invariant across runs and
	// parallelism.
	Fingerprint string    `json:"fingerprint"`
	Catalog     string    `json:"catalog"` // Table II entry id, "" if unclassified
	APIs        [2]string `json:"apis"`
	Tables      [2]string `json:"tables"`
	Count       int       `json:"count"` // coarse cycles folded into the report
	// Txns is what each transaction holds and where it waits, as the
	// history store keeps it.
	Txns [2]history.TxnLock `json:"txns"`
}

func printJSON(res *core.Result, co *staticlint.CanonicalOrder, classify func(*core.Deadlock) string, partial bool) error {
	rep := jsonReport{Version: 1, Partial: partial, Stats: statsObject(res.Stats), Reports: []jsonDeadlck{}, Canonical: co}
	for _, d := range res.Deadlocks {
		rep.Reports = append(rep.Reports, jsonDeadlck{
			Fingerprint: d.Fingerprint(),
			Catalog:     classify(d),
			APIs:        d.APIs,
			Tables:      [2]string{d.Cycle.Table1, d.Cycle.Table2},
			Count:       d.Count,
			Txns:        history.Txns(d),
		})
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func printReport(res *core.Result, co *staticlint.CanonicalOrder, app apps.App, verbose bool) {
	fmt.Println(res.Stats.Render())
	fmt.Print(co.RenderSuggestions())
	counts := map[string][]*core.Deadlock{}
	for _, d := range res.Deadlocks {
		id := app.Classify(d)
		counts[id] = append(counts[id], d)
	}
	fmt.Printf("\n%d deadlock reports, by catalog entry:\n", len(res.Deadlocks))
	// The app's catalog ids in catalog order, then every other class
	// sorted (fp-checkout-applock, extra, a generated corpus's planted
	// f-classes), then the unclassified reports.
	var order, others []string
	listed := map[string]bool{"": true}
	if c, ok := app.(fixapply.Cataloged); ok {
		for _, e := range c.Catalog() {
			order = append(order, e.ID)
			listed[e.ID] = true
		}
	}
	for id := range counts {
		if !listed[id] {
			others = append(others, id)
		}
	}
	sort.Strings(others)
	order = append(append(order, others...), "")
	for _, id := range order {
		ds := counts[id]
		if len(ds) == 0 {
			continue
		}
		label := id
		if label == "" {
			label = "(unclassified)"
		}
		d := ds[0]
		fmt.Printf("  %-20s %3d report(s)  e.g. %s — %s on [%s, %s]\n",
			label, len(ds), d.APIs[0], d.APIs[1], d.Cycle.Table1, d.Cycle.Table2)
	}
	if verbose {
		for i, d := range res.Deadlocks {
			fmt.Printf("\n=== Deadlock %d (%s) ===\n%s", i+1, app.Classify(d), d.Render())
		}
	}
}
