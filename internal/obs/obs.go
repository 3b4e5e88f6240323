// Package obs is WeSEER's stdlib-only observability layer: span tracing
// with Chrome trace_event / JSONL exporters, a Prometheus-text metrics
// registry, live run progress, and a debug HTTP server (/metrics,
// /progress, net/http/pprof).
//
// The pipeline is instrumented through *Observer, injected with
// core.WithObserver (and concolic.WithObserver for extraction spans).
// Every hook is nil-safe: a nil *Observer, and nil components inside a
// non-nil one, are valid no-op sinks, and instrumented call sites guard
// on the observer before building any attribute, so instrumentation
// adds zero allocations when disabled. Telemetry is strictly
// observational — it never influences enumeration order, solving, or
// merging — so core.AnalyzeContext's determinism guarantee
// (byte-identical reports at any parallelism) is untouched.
package obs

import "time"

// Observer bundles the three telemetry sinks one diagnosis run feeds:
// the span tracer, the metrics registry (with the pipeline's
// pre-registered instruments), and the live progress tracker. Construct
// with NewObserver; the zero value and nil are valid no-op sinks.
type Observer struct {
	Tracer   *Tracer
	Metrics  *Registry
	Progress *Progress
	// Pipeline holds the pre-registered pipeline instruments so hot
	// paths update counters without registry lookups.
	Pipeline *PipelineMetrics
}

// NewObserver returns an observer with all sinks wired: a fresh tracer,
// a registry carrying the pipeline instruments, and a progress tracker.
func NewObserver() *Observer {
	reg := NewRegistry()
	return &Observer{
		Tracer:   NewTracer(),
		Metrics:  reg,
		Progress: NewProgress(),
		Pipeline: RegisterPipelineMetrics(reg),
	}
}

// StartSpan opens a span on logical thread tid (0 = orchestrator,
// 1..N = phase-3 workers). Nil-safe.
func (o *Observer) StartSpan(tid int, name string, attrs ...Attr) Span {
	if o == nil {
		return Span{}
	}
	return o.Tracer.Start(tid, name, attrs...)
}

// Snapshot flattens the metrics registry (nil-safe; nil observer
// yields nil).
func (o *Observer) Snapshot() map[string]float64 {
	if o == nil {
		return nil
	}
	return o.Metrics.Snapshot()
}

// inertPipeline's instrument pointers are all nil; every instrument
// method is nil-receiver-safe, so it absorbs updates without effect.
var inertPipeline = &PipelineMetrics{}

// P returns the pipeline instruments, or an inert no-op set when the
// observer (or its Pipeline) is nil — call sites can write
// o.P().Traces.Add(n) unconditionally.
func (o *Observer) P() *PipelineMetrics {
	if o == nil || o.Pipeline == nil {
		return inertPipeline
	}
	return o.Pipeline
}

// SolveObservation is one solver call's telemetry, emitted by
// internal/solver (which cannot be imported from here — the int fields
// mirror solver.Stats' CDCL counters).
type SolveObservation struct {
	Duration       time.Duration
	Status         string // "SAT" | "UNSAT" | "UNKNOWN"
	Decisions      int
	Conflicts      int
	Propagations   int
	LearnedClauses int
	Backjumps      int
	TheoryCalls    int
}

// ObserveSolve records one solver call into the latency histogram and
// the CDCL counters. Nil-safe.
func (o *Observer) ObserveSolve(s SolveObservation) {
	if o == nil || o.Pipeline == nil {
		return
	}
	m := o.Pipeline
	m.SolverLatency.Observe(s.Duration.Seconds())
	m.Decisions.Add(int64(s.Decisions))
	m.Conflicts.Add(int64(s.Conflicts))
	m.Propagations.Add(int64(s.Propagations))
	m.LearnedClauses.Add(int64(s.LearnedClauses))
	m.Backjumps.Add(int64(s.Backjumps))
	m.TheoryCalls.Add(int64(s.TheoryCalls))
}

// PipelineMetrics are the diagnosis pipeline's instruments, registered
// once per Observer. The funnel counters mirror core.Stats field for
// field, so after a completed run /metrics and Result.Stats agree; the
// edge-cache counters are metrics-only (build/hit attribution races
// benignly between workers, so they stay out of the deterministic
// report).
type PipelineMetrics struct {
	Traces           *Counter
	Pairs            *Counter
	PairsAfterPhase1 *Counter
	CoarseCycles     *Counter
	IndexProbes      *Counter
	LockFiltered     *Counter
	GroupsSolved     *Counter
	SolverCalls      *Counter
	MemoHits         *Counter
	CanonCalls       *Counter
	CanonMicros      *Counter

	PrescreenPairs       *Counter
	PrescreenPairsPruned *Counter
	PrescreenSaved       *Counter

	SAT     *Counter
	UNSAT   *Counter
	Unknown *Counter

	EdgeCacheHits   *Counter
	EdgeCacheBuilds *Counter

	Decisions      *Counter
	Conflicts      *Counter
	Propagations   *Counter
	LearnedClauses *Counter
	Backjumps      *Counter
	TheoryCalls    *Counter

	SolverLatency *Histogram

	ChainsTotal *Gauge
	ChainsDone  *Gauge

	ExtractedTraces    *Counter
	ExtractedStmts     *Counter
	ExtractedPathConds *Counter
}

// RegisterPipelineMetrics registers the pipeline instruments on reg.
func RegisterPipelineMetrics(reg *Registry) *PipelineMetrics {
	return &PipelineMetrics{
		Traces:           reg.Counter("weseer_funnel_traces_total", "traces entering the diagnosis"),
		Pairs:            reg.Counter("weseer_funnel_txn_pairs_total", "transaction instance pairs considered (phase 1 input)"),
		PairsAfterPhase1: reg.Counter("weseer_funnel_pairs_after_phase1_total", "pairs surviving the transaction-level filter"),
		CoarseCycles:     reg.Counter("weseer_funnel_coarse_cycles_total", "SC-graph deadlock cycles found in phase 2"),
		IndexProbes:      reg.Counter("weseer_enum_index_probes_total", "posting-list entries walked by the phase-1 conflict index"),
		LockFiltered:     reg.Counter("weseer_funnel_lock_filtered_total", "cycles discarded by the lock-collision test"),
		GroupsSolved:     reg.Counter("weseer_funnel_groups_solved_total", "cycles discharged in the fine phase (memoized or not)"),
		SolverCalls:      reg.Counter("weseer_funnel_solver_calls_total", "group discharges that ran the solver"),
		MemoHits:         reg.Counter("weseer_funnel_memo_hits_total", "group discharges served from the solver-call memo table"),
		CanonCalls:       reg.Counter("weseer_canon_calls_total", "distinct formula shapes canonicalized (memo level one)"),
		CanonMicros:      reg.Counter("weseer_canon_microseconds_total", "time spent canonicalizing those shapes, summed over workers"),

		PrescreenPairs:       reg.Counter("weseer_prescreen_pairs_total", "pairs examined by the phase-0 static screen"),
		PrescreenPairsPruned: reg.Counter("weseer_prescreen_pairs_pruned_total", "pairs discarded before cycle enumeration"),
		PrescreenSaved:       reg.Counter("weseer_prescreen_saved_total", "solver calls avoided by phase-0 group refutation"),

		SAT:     reg.Counter("weseer_solver_sat_total", "solver verdicts: satisfiable (confirmed deadlock)"),
		UNSAT:   reg.Counter("weseer_solver_unsat_total", "solver verdicts: unsatisfiable"),
		Unknown: reg.Counter("weseer_solver_unknown_total", "solver verdicts: unknown (budget or cancellation)"),

		EdgeCacheHits:   reg.Counter("weseer_edge_cache_hits_total", "C-edge conflict conditions served from the per-edge cache"),
		EdgeCacheBuilds: reg.Counter("weseer_edge_cache_builds_total", "C-edge conflict conditions built from scratch"),

		Decisions:      reg.Counter("weseer_cdcl_decisions_total", "CDCL decisions across solver calls"),
		Conflicts:      reg.Counter("weseer_cdcl_conflicts_total", "CDCL conflicts across solver calls"),
		Propagations:   reg.Counter("weseer_cdcl_propagations_total", "watched-literal unit propagations across solver calls"),
		LearnedClauses: reg.Counter("weseer_cdcl_learned_clauses_total", "clauses learned from conflict analysis and theory cores"),
		Backjumps:      reg.Counter("weseer_cdcl_backjumps_total", "non-chronological backjumps across solver calls"),
		TheoryCalls:    reg.Counter("weseer_cdcl_theory_calls_total", "theory checks across solver calls"),

		SolverLatency: reg.Histogram("weseer_solver_seconds", "per-call solver latency in seconds", SolverLatencyBuckets),

		ChainsTotal: reg.Gauge("weseer_chains_total", "phase-3 chains enumerated for discharge"),
		ChainsDone:  reg.Gauge("weseer_chains_done", "phase-3 chains discharged so far"),

		ExtractedTraces:    reg.Counter("weseer_extract_traces_total", "traces collected by concolic extraction"),
		ExtractedStmts:     reg.Counter("weseer_extract_statements_total", "SQL statements recorded during extraction"),
		ExtractedPathConds: reg.Counter("weseer_extract_path_conds_total", "path conditions recorded during extraction"),
	}
}
