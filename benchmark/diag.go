package main

// The diagnosis workloads (table2, gen1056): one op diagnoses each of
// the workload's apps in a fresh child process that does what `weseer
// run` does. A long-lived process would measure the process-global smt
// interner's growth instead of a diagnosis (README, "PR 11 post-mortem").

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/trace"
)

// Environment variables that turn the harness binary (or the test
// binary) into a diagnosis child.
const (
	childEnv      = "WESEER_BENCH_CHILD"       // app spec to diagnose
	childTraceEnv = "WESEER_BENCH_CHILD_TRACE" // "1": record spans and memory
)

// diagOut is what a diagnosis child prints, as one JSON line.
type diagOut struct {
	Spec        string
	Digest      string // of the rendered report, timings removed
	ReportBytes int    // likewise
	Deadlocks   int
	Classes     map[string]int // the app's classifier id -> reports
	Traces      int
	Stmts       int
	Stats       core.Stats
	MainS       float64 // main's start to the result being ready
	Spans       []span  `json:",omitempty"` // traced only; seconds since main's start
	Mem         *memUse `json:",omitempty"` // traced only
}

// memUse is the Go runtime's account of a process or of a stretch of it.
type memUse struct {
	Mallocs    uint64
	AllocBytes uint64
	GCCPUShare float64
	HeapLiveMB float64 // after a forced collection
}

func readMemUse() memUse {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memUse{m.Mallocs, m.TotalAlloc, m.GCCPUFraction, float64(m.HeapAlloc) / (1 << 20)}
}

func countStmts(traces []*trace.Trace) int {
	n := 0
	for _, tr := range traces {
		n += len(tr.AllStmts())
	}
	return n
}

// stableReport is a rendered report with the one line that carries wall
// times replaced by its timing-free form, and its digest.
func stableReport(res *core.Result, report string) (stable, digest string) {
	stable = strings.Replace(report, res.Stats.Render(), res.Stats.WithoutTimings().Render(), 1)
	sum := sha256.Sum256([]byte(stable))
	return stable, hex.EncodeToString(sum[:8])
}

// diagnose is the path `weseer run` takes: open the app, collect its
// traces under concolic execution, analyze with one worker, render.
func diagnose(spec string, traced bool) (diagOut, error) {
	t0 := time.Now()
	var tr *tracer
	if traced {
		tr = &tracer{epoch: t0}
	}
	out := diagOut{Spec: spec, Classes: map[string]int{}}

	var app apps.App
	var err error
	tr.timed("apps.open", -1, 0, func() { app, err = apps.Open(spec, apps.Options{}) })
	if err != nil {
		return out, err
	}
	var traces []*trace.Trace
	tr.timed("appkit.collect", -1, 0, func() {
		traces, err = appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
	})
	if err != nil {
		return out, err
	}
	var res *core.Result
	analyzeID, endAnalyze := tr.start("core.analyze", -1, 0)
	res, err = core.NewAnalyzer(app.Schema(), core.WithParallelism(1)).AnalyzeContext(context.Background(), traces)
	endAnalyze()
	if err != nil {
		return out, err
	}
	var report string
	tr.timed("core.render", -1, 0, func() { report = res.Render() })

	stable, digest := stableReport(res, report)
	out.Digest, out.ReportBytes = digest, len(stable)
	out.Deadlocks = len(res.Deadlocks)
	for _, d := range res.Deadlocks {
		out.Classes[app.Classify(d)]++
	}
	out.Traces, out.Stmts, out.Stats = len(traces), countStmts(traces), res.Stats
	if traced {
		addPhaseSpans(tr, analyzeID, res.Stats)
		out.Spans = tr.finished()
		m := readMemUse()
		out.Mem = &m
	}
	out.MainS = time.Since(t0).Seconds()
	return out, nil
}

// addPhaseSpans places the phases core.Stats reports under the analyze
// span: the fine phase ends where the analysis ends, enumeration directly
// precedes it, and the (single worker's) solver time sits inside the
// fine phase, so the fine span's self time is its non-solver part.
func addPhaseSpans(tr *tracer, analyzeID int, st core.Stats) {
	a := tr.get(analyzeID)
	fineStart := max(a.End-st.FineTime.Seconds(), a.Start)
	enumStart := max(fineStart-st.EnumTime.Seconds(), a.Start)
	tr.add(span{Parent: analyzeID, Op: a.Op, Name: "core.enum", Start: enumStart, End: fineStart, Derived: true})
	fine := tr.add(span{Parent: analyzeID, Op: a.Op, Name: "core.fine", Start: fineStart, End: a.End, Derived: true})
	tr.add(span{Parent: fine, Op: a.Op, Name: "core.solver", Start: fineStart,
		End: min(fineStart+st.SolverTime.Seconds(), a.End), Derived: true})
}

// childMain is the whole life of a diagnosis child.
func childMain(spec string) int {
	if spec == refSpec {
		refKernel()
		return 0
	}
	out, err := diagnose(spec, os.Getenv(childTraceEnv) == "1")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	return 0
}

// procUse is what one child process cost, measured by its parent.
type procUse struct {
	wallS, cpuS, rssMB float64
}

// runChild diagnoses spec in a fresh process and waits for it to end.
func runChild(self, spec string, traced bool) (diagOut, procUse, error) {
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), childEnv+"="+spec, fmt.Sprintf("GOMAXPROCS=%d", procs()))
	if traced {
		cmd.Env = append(cmd.Env, childTraceEnv+"=1")
	}
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	t0 := time.Now()
	err := cmd.Run()
	use := procUse{wallS: time.Since(t0).Seconds()}
	var out diagOut
	if err != nil {
		return out, use, fmt.Errorf("diagnose %s: %w", spec, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		use.cpuS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		use.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return out, use, fmt.Errorf("diagnose %s: decode result: %w", spec, err)
	}
	return out, use, nil
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// diagWorkload is table2 or gen1056.
type diagWorkload struct {
	cfg     *config
	self    string
	warmups int
	specs   []string
	check   func(outs []diagOut) error
	digest  string     // the first op's; every later op must match it
	last    []diagOut  // the latest traced op's children, for counts
	mem     []memUse   // traced children
	probe   probeSpecs // what the layer probes run on
}

func newDiagWorkload(cfg *config) (*diagWorkload, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	w := &diagWorkload{cfg: cfg, self: self}
	switch cfg.workload {
	case "table2":
		w.warmups = cfg.size.warmTable2
		w.specs = table2Apps
		w.check = checkTable2
		w.probe = probeSpecs{specs: table2Apps, vet: true, replay: true}
	case "gen1056":
		w.warmups = cfg.size.warmGen
		spec := fmt.Sprintf("gen:%d,templates=%d", cfg.seed, cfg.size.genTemplates)
		w.specs = []string{spec}
		w.check = func(outs []diagOut) error { return checkGen(cfg.seed, outs[0]) }
		w.probe = probeSpecs{specs: w.specs}
	}
	return w, nil
}

func (w *diagWorkload) setup() error {
	w.digest = ""
	for i := 0; i < w.warmups; i++ {
		if s := w.op(nil, -1); s.err != nil {
			return fmt.Errorf("warm-up: %w", s.err)
		}
	}
	return nil
}

// op runs one diagnosis of every app, each in its own process, and
// checks the answers.
func (w *diagWorkload) op(tr *tracer, id int) opSample {
	var s opSample
	opSpan, endOp := tr.start("op", -1, id)
	defer endOp()
	outs := make([]diagOut, 0, len(w.specs))
	digests := make([]string, 0, len(w.specs))
	for _, spec := range w.specs {
		startS := tr.now()
		out, use, err := runChild(w.self, spec, tr != nil)
		s.wallS += use.wallS
		s.cpuS += use.cpuS
		s.rssMB = max(s.rssMB, use.rssMB)
		if err != nil {
			s.err = err
			return s
		}
		if tr != nil {
			w.adopt(tr, opSpan, id, startS, use.wallS, out)
		}
		outs = append(outs, out)
		digests = append(digests, out.Digest)
	}
	if err := w.check(outs); err != nil {
		s.err = err
		return s
	}
	digest := strings.Join(digests, "+")
	if w.digest == "" {
		w.digest = digest
	} else if digest != w.digest {
		s.err = fmt.Errorf("report digest %s differs from the first op's %s", digest, w.digest)
	}
	return s
}

// adopt copies a traced child's spans under the op span, on the parent's
// clock. The child cannot see its own start-up (exec, runtime init) or
// its exit, so its main is placed at the end of the parent-measured
// interval less the child's own run time; what remains of the proc.child
// span after its children is that start-up and exit cost.
func (w *diagWorkload) adopt(tr *tracer, opSpan, op int, startS, wallS float64, out diagOut) {
	proc := tr.add(span{Parent: opSpan, Op: op, Name: "proc.child", Start: startS, End: startS + wallS})
	base := startS + max(wallS-out.MainS, 0)
	ids := map[int]int{-1: proc}
	for _, s := range out.Spans {
		child := s.ID
		s.Parent, s.Op = ids[s.Parent], op
		s.Start, s.End = s.Start+base, s.End+base
		ids[child] = tr.add(s)
	}
	w.mem = append(w.mem, *out.Mem)
	if len(w.last) == len(w.specs) {
		w.last = w.last[:0]
	}
	w.last = append(w.last, out)
}

func (w *diagWorkload) run(d time.Duration, tr *tracer) runStats {
	return closedLoop(d, tr, w.cfg.ref, w.op)
}

func (w *diagWorkload) probes(tr *tracer, m map[string]float64) error {
	return diagProbes(w.cfg, tr, w.probe, m)
}

func (w *diagWorkload) close() error { return nil }

// layers derives the traced run's metrics: time per op in each layer
// from the spans, exact counts from the last op's children.
func (w *diagWorkload) layers(spans []span, m map[string]float64) {
	for metric, name := range map[string]string{
		"apps.open_s":      "apps.open",
		"appkit.collect_s": "appkit.collect",
		"core.analyze_s":   "core.analyze",
		"core.enum_s":      "core.enum",
		"core.fine_s":      "core.fine",
		"core.solver_s":    "core.solver",
		"core.render_s":    "core.render",
	} {
		m[metric] = perOpP50(spans, name, false)
	}
	m["core.fine_nonsolver_s"] = perOpP50(spans, "core.fine", true)
	m["proc.startup_s"] = perOpP50(spans, "proc.child", true)

	var st core.Stats
	for _, o := range w.last {
		m["appkit.traces"] += float64(o.Traces)
		m["appkit.stmts"] += float64(o.Stmts)
		m["core.report_bytes"] += float64(o.ReportBytes)
		m["core.deadlocks"] += float64(o.Deadlocks)
		st = addStats(st, o.Stats)
	}
	statsMetrics(st, m)
	if m["core.solver_calls"] > 0 {
		m["solver.s_per_call"] = m["core.solver_s"] / m["core.solver_calls"]
	}
	ops := float64(len(w.mem)) / float64(len(w.specs))
	var gc float64
	for _, u := range w.mem {
		m["go.allocs_per_op"] += float64(u.Mallocs) / ops
		m["go.alloc_mb_per_op"] += float64(u.AllocBytes) / (1 << 20) / ops
		// Every child starts from an empty heap, so what is live at its
		// end is also what the op grew.
		m["go.heap_growth_mb_per_op"] += u.HeapLiveMB / ops
		m["go.heap_live_mb_end"] = max(m["go.heap_live_mb_end"], u.HeapLiveMB)
		gc += u.GCCPUShare / float64(len(w.mem))
	}
	m["go.gc_cpu_share"] = gc
}

// addStats sums the funnel counters of two analyses.
func addStats(a, b core.Stats) core.Stats {
	a.Pairs += b.Pairs
	a.PairsAfterPhase1 += b.PairsAfterPhase1
	a.IndexProbes += b.IndexProbes
	a.CoarseCycles += b.CoarseCycles
	a.LockFiltered += b.LockFiltered
	a.GroupsSolved += b.GroupsSolved
	a.SolverCalls += b.SolverCalls
	a.MemoHits += b.MemoHits
	a.Fingerprints += b.Fingerprints
	a.Engine.Add(b.Engine)
	return a
}

// statsMetrics spells core.Stats out as the exact-count layer metrics.
func statsMetrics(st core.Stats, m map[string]float64) {
	m["core.pairs"] = float64(st.Pairs)
	m["core.pairs_after_phase1"] = float64(st.PairsAfterPhase1)
	m["core.index_probes"] = float64(st.IndexProbes)
	m["core.coarse_cycles"] = float64(st.CoarseCycles)
	m["core.lock_filtered"] = float64(st.LockFiltered)
	m["core.groups_solved"] = float64(st.GroupsSolved)
	m["core.solver_calls"] = float64(st.SolverCalls)
	m["core.memo_hits"] = float64(st.MemoHits)
	if st.GroupsSolved > 0 {
		m["core.memo_hit_ratio"] = float64(st.MemoHits) / float64(st.GroupsSolved)
	}
	m["core.fingerprints"] = float64(st.Fingerprints)
	m["solver.decisions"] = float64(st.Engine.Decisions)
	m["solver.conflicts"] = float64(st.Engine.Conflicts)
	m["solver.propagations"] = float64(st.Engine.Propagations)
	m["solver.theory_calls"] = float64(st.Engine.TheoryCalls)
	m["solver.learned_clauses"] = float64(st.Engine.LearnedClauses)
}
