package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// sizes are the run-length constants that are not the driver's to set.
type sizes struct {
	genTemplates   int // gen1056's corpus
	serveTemplates int // the batch serve-cycle re-ingests
	storeEvents    int // events in serve-cycle's store before the first op
	warmTable2     int // warm-up ops, run and discarded inside setup
	warmGen        int
	warmServe      int
	loadWarmup     time.Duration
	setups         int // set-ups per untraced run; setup_s is their median
	// serve-cycle's store and interner grow with every op and a faster
	// machine fits more ops into a run, so its peak_rss_mb and the size of
	// its store are read after this many ops of a stretch.
	serveSizeAtOp int
	// replaySample caps the reports per app that the replay probe runs
	// against a live database, about 30 ms each.
	replaySample int
}

var (
	fullSize = sizes{
		genTemplates: 1056, serveTemplates: 96, storeEvents: 30000,
		warmTable2: 2, warmGen: 1, warmServe: 1, loadWarmup: time.Second,
		setups: 3, serveSizeAtOp: 10, replaySample: 20,
	}
	// tinySize keeps the smoke test of all four workloads under 15 s.
	tinySize = sizes{
		genTemplates: 24, serveTemplates: 24, storeEvents: 500,
		warmTable2: 1, warmGen: 1, warmServe: 1, loadWarmup: 200 * time.Millisecond,
		setups: 1, serveSizeAtOp: 2, replaySample: 4,
	}
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	size     sizes
	ref      *refSampler
	scratch  string // where stores and logs are created and removed
	outDir   string // where the traced run writes its span files
	repoRoot string // the model apps' source directories are relative to it
}

// opSample is one op of a closed loop. cpuS and rssMB are set by the
// workloads whose ops run in child processes.
type opSample struct {
	wallS, cpuS, rssMB float64
	err                error
}

// runStats is one timed stretch of a workload.
type runStats struct {
	walls []float64 // wall time of every correct op
	// plain holds the untraced ops of a traced stretch; set against walls
	// (the traced ones) it gives the tracing overhead.
	plain     []float64
	attempted int
	failed    int
	wallS     float64
	cpuS      float64
	peakRSSMB float64
	firstErr  error
}

// runner is what a run needs from each of the four workloads.
type runner interface {
	// setup prepares inputs and state and runs the warm-up ops. It may be
	// called again after close.
	setup() error
	// run drives the workload for d. With a tracer it traces half of the
	// ops and leaves the other half untraced.
	run(d time.Duration, tr *tracer) runStats
	// probes times layers off the user path (traced run only).
	probes(tr *tracer, m map[string]float64) error
	// layers derives layer metrics from the traced stretch.
	layers(spans []span, m map[string]float64)
	close() error
}

func newRunner(cfg *config) (runner, error) {
	switch cfg.workload {
	case "table2", "gen1056":
		return newDiagWorkload(cfg)
	case "serve-cycle":
		return newServeWorkload(cfg), nil
	case "load":
		return &loadWorkload{cfg: cfg}, nil
	}
	var names []string
	for _, w := range workloadDefs {
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(names, ", "))
}

// closedLoop issues ops one after another — the next starts when the
// previous has been checked — until d has passed. With a tracer every
// second op is traced, so that traced and untraced ops meet the same
// state (serve-cycle's store grows with every op), and at least one of
// either kind is run.
//
// Between ops it lets the reference sampler run; that time is not part of
// the stretch.
func closedLoop(d time.Duration, tr *tracer, ref *refSampler, op func(tr *tracer, id int) opSample) runStats {
	var rs runStats
	t0, ref0 := time.Now(), ref.spent
	for id := 0; time.Since(t0)-(ref.spent-ref0) < d || (tr != nil && id < 2); id++ {
		t := tr
		if id%2 == 0 {
			t = nil
		}
		s := op(t, id)
		rs.attempted++
		if s.err != nil {
			rs.failed++
			if rs.firstErr == nil {
				rs.firstErr = s.err
			}
			continue
		}
		if tr != nil && t == nil {
			rs.plain = append(rs.plain, s.wallS)
		} else {
			rs.walls = append(rs.walls, s.wallS)
		}
		rs.cpuS += s.cpuS
		rs.peakRSSMB = max(rs.peakRSSMB, s.rssMB)
		ref.tick()
	}
	rs.wallS = (time.Since(t0) - (ref.spent - ref0)).Seconds()
	return rs
}

// selfUsage is the harness process's own CPU seconds and peak resident
// set so far.
func selfUsage() (cpuS, rssMB float64) {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with these arguments
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime), float64(ru.Maxrss) / 1024
}

// inProcess charges a stretch that runs inside the harness process with
// the process's own CPU time, and with its peak resident set unless the
// stretch sampled that itself, at a fixed op count.
func inProcess(fn func() runStats) runStats {
	before, _ := selfUsage()
	rs := fn()
	after, rss := selfUsage()
	rs.cpuS = after - before
	if rs.peakRSSMB == 0 {
		rs.peakRSSMB = rss
	}
	return rs
}

// perOpP50 is the median over ops of the time one op spent in spans
// called name (their self time when self is set).
func perOpP50(spans []span, name string, self bool) float64 {
	var selfOf map[int]float64
	if self {
		selfOf = selfTimes(spans)
	}
	perOp := map[int]float64{}
	for _, s := range spans {
		if s.Name != name || s.Op < 0 {
			continue
		}
		if self {
			perOp[s.Op] += selfOf[s.ID]
		} else {
			perOp[s.Op] += s.dur()
		}
	}
	vals := make([]float64, 0, len(perOp))
	for _, v := range perOp {
		vals = append(vals, v)
	}
	return median(vals)
}

// result is one run's outcome.
type result struct {
	cfg       *config
	correct   bool
	attempted int
	failed    int
	samples   int
	metrics   map[string]float64
	raw       map[string]float64 // end-to-end metrics before the speed adjustment
	tail      string             // which tail percentile tailS is
	tailS     float64            // op wall time at that percentile
	noise     [2]float64
	firstErr  error
	// What scales a time measured during the set-ups, and during the
	// stretch, to the nominal machine speed.
	setupSpeed, speed float64
}

func procs() int { return min(runtime.NumCPU(), 2) }

// runWorkload performs one run: the set-ups, then either the timed
// stretch (end-to-end metrics) or the probes plus a half-traced stretch
// (layer metrics).
func runWorkload(cfg *config) (*result, error) {
	res := &result{cfg: cfg, metrics: map[string]float64{}}
	res.noise[0] = noiseProbe()
	var err error
	if cfg.ref, err = newRefSampler(); err != nil {
		return nil, err
	}
	w, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	setups := cfg.size.setups
	if cfg.trace {
		setups = 1
	}
	// The reference is sampled on either side of every set-up, so that
	// the set-up phase and the stretch are each scaled by the machine
	// speed seen while they ran; the sample between them counts for both.
	var setupS []float64
	for i := 0; i < setups; i++ {
		cfg.ref.sample()
		t0 := time.Now()
		if i > 0 {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer w.close()
	cfg.ref.sample()
	stretchFrom := len(cfg.ref.samples) - 1

	var rs runStats
	if cfg.trace {
		tr := newTracer()
		if err := w.probes(tr, res.metrics); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", cfg.workload, err)
		}
		rs = w.run(cfg.duration, tr)
		spans := tr.finished()
		w.layers(spans, res.metrics)
		res.metrics["bench.trace_overhead_ratio"] = ratio(median(rs.walls), median(rs.plain))
		res.metrics["bench.span_coverage"] = spanCoverage(spans)
		if err := writeSpanFiles(cfg, spans, res.metrics); err != nil {
			return nil, err
		}
	} else {
		rs = w.run(cfg.duration, nil)
		ok := float64(len(rs.walls))
		res.raw = map[string]float64{
			"setup_s":       median(setupS),
			"op_wall_s.p50": median(rs.walls),
			"ops_per_s":     ratio(ok, rs.wallS),
			"cpu_s_per_op":  ratio(rs.cpuS, ok),
			"peak_rss_mb":   rs.peakRSSMB,
		}
		// Times are reported at the nominal machine speed (ref.go).
		res.setupSpeed = speed(cfg.ref.samples[:stretchFrom+1])
		res.speed = speed(cfg.ref.samples[stretchFrom:])
		k := res.speed
		res.metrics["setup_s"] = res.setupSpeed * res.raw["setup_s"]
		res.metrics["op_wall_s.p50"] = k * res.raw["op_wall_s.p50"]
		res.metrics["ops_per_s"] = ratio(res.raw["ops_per_s"], k)
		res.metrics["cpu_s_per_op"] = k * res.raw["cpu_s_per_op"]
		res.metrics["peak_rss_mb"] = rs.peakRSSMB
		var p float64
		res.tail, p = tailPercentile(len(rs.walls))
		res.tailS = percentile(rs.walls, p)
	}
	if err := w.close(); err != nil {
		return nil, err
	}
	res.noise[1] = noiseProbe()
	if cfg.trace {
		res.metrics["bench.noise_probe_s"] = (res.noise[0] + res.noise[1]) / 2
		res.metrics["bench.ref_child_s"] = median(cfg.ref.samples)
	}
	if cfg.ref.err != nil {
		return nil, cfg.ref.err
	}
	res.attempted, res.failed, res.samples = rs.attempted, rs.failed, len(rs.walls)
	res.firstErr = rs.firstErr
	res.correct = rs.failed == 0 && len(rs.walls) > 0
	return res, nil
}

// writeSpanFiles writes the traced run's spans (JSONL and Chrome
// trace_event JSON) and adds its layer table to layers.json.
func writeSpanFiles(cfg *config, spans []span, metrics map[string]float64) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(cfg.outDir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write("trace-"+cfg.workload+".jsonl", func(w io.Writer) error { return writeJSONL(w, spans) }); err != nil {
		return err
	}
	if err := write("trace-"+cfg.workload+".chrome.json", func(w io.Writer) error { return writeChromeTrace(w, spans) }); err != nil {
		return err
	}
	// layers.json holds one entry per workload; a run replaces its own.
	path := filepath.Join(cfg.outDir, "layers.json")
	all := map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(data, &all) // an unreadable file is rewritten
	}
	all[cfg.workload] = map[string]any{
		"seed":    cfg.seed,
		"metrics": metrics,
		"spans":   layerTable(spans),
	}
	data, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// disturbed reports whether the two noise probes around the run differ
// by more than a tenth: a neighbour was using the machine.
func (r *result) disturbed() bool {
	lo, hi := min(r.noise[0], r.noise[1]), max(r.noise[0], r.noise[1])
	return hi > 1.1*lo
}

func loadAverage() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.Fields(string(data))[0]
}

func commit() string {
	rev, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// print writes the human-readable report and, as the last line, the one
// JSON object the driver reads.
func (r *result) print(w io.Writer) error {
	cfg := r.cfg
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %t\n", cfg.workload, cfg.seed, cfg.duration.Seconds(), cfg.trace)
	fmt.Fprintf(w, "env: nproc %d  GOMAXPROCS %d  %s  commit %s  load1 %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), loadAverage())
	state := "quiet"
	if r.disturbed() {
		state = "DISTURBED (the probes differ by more than 10%)"
	}
	fmt.Fprintf(w, "noise probe: %.4f s before, %.4f s after: %s\n", r.noise[0], r.noise[1], state)
	if !cfg.trace {
		fmt.Fprintf(w, "reference child: median %.4f s over %d samples; setup_s is scaled by %.4f and the other times by %.4f, to the speed at which it takes %.3f s\n",
			median(cfg.ref.samples), len(cfg.ref.samples), r.setupSpeed, r.speed, refNominal)
	}
	fmt.Fprintf(w, "ops: %d attempted, %d failed, %d timed samples\n", r.attempted, r.failed, r.samples)
	if r.firstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", r.firstErr)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, m := range defs {
		v := r.metrics[m.Name]
		out.Metrics[m.Name] = value{v, m.Unit}
		bound := ""
		if m.Bound > 0 {
			bound = "  bound " + pct(m.Bound)
		}
		if !cfg.trace {
			bound += fmt.Sprintf("  as measured %.6g", r.raw[m.Name])
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-6s %s is better  n=%d%s\n", m.Name, v, m.Unit, m.Better, r.samples, bound)
	}
	if !cfg.trace && r.tail != "p50" {
		fmt.Fprintf(w, "  %-32s %14.6g %-6s as measured (not an end-to-end metric)\n", "op_wall_s."+r.tail, r.tailS, "s")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
