package core

// The diagnosis funnel's numbers, declared once: a Stats field and its
// StatsTable row. The merges of worker outcomes (Stats.add), the live
// publish to /metrics (Metrics.publish), the -json stats object
// (cmd/weseer) and the metrics-equal-stats tests all walk that table; only
// Stats.Render, which is prose, names a field by hand.

import (
	"fmt"
	"time"

	"weseer/internal/obs"
	"weseer/internal/solver"
)

// Stats is the per-phase diagnosis funnel: how many candidates entered
// and left each stage, and where the wall time went.
type Stats struct {
	Traces           int
	Pairs            int // transaction instance pairs considered
	PairsAfterPhase1 int // pairs surviving the transaction-level filter
	CoarseCycles     int // SC-graph deadlock cycles found in phase 2

	// IndexProbes counts the posting-list entries the inverted
	// table-conflict index walked to produce the phase-1 survivors —
	// the work the indexed enumeration does in place of the naive
	// loop's Pairs signature probes. Deterministic at any parallelism.
	IndexProbes  int
	LockFiltered int // cycles discarded by the lock-collision test
	GroupsSolved int // cycles discharged in the fine phase (memoized or not)

	// PrescreenSaved is always zero and is in no StatsTable row.
	//
	// Deprecated: the analyzer has no static prescreen; kept only because
	// benchmark/probes.go still reads it.
	PrescreenSaved int

	// Fingerprints is the number of distinct deadlock fingerprints among
	// the reported deadlocks (see Deadlock.Fingerprint) — the number of
	// history-store events this run contributes. Deterministic at any
	// parallelism; zero when nothing was reported.
	Fingerprints int

	// Memoization split of GroupsSolved: SolverCalls discharges actually
	// ran the solver (one per distinct canonical formula); MemoHits were
	// served from the memo table. SolverCalls + MemoHits == GroupsSolved.
	// CanonCalls is the memo table's first level: the number of distinct
	// skeleton keys (run.skeletonKey; equal keys, formulas equal up to
	// renaming), each one's formula canonicalized once, so SolverCalls <=
	// CanonCalls <= GroupsSolved. It counts table entries, hence is
	// deterministic at any parallelism.
	SolverCalls int
	MemoHits    int
	CanonCalls  int

	SolverSAT     int
	SolverUNSAT   int
	SolverUnknown int

	// Engine aggregates the CDCL(T) engine counters over the run's actual
	// solver calls (decisions, conflicts, propagations, learned clauses,
	// backjumps, theory checks). Memo hits contribute nothing — each
	// distinct canonical formula is counted exactly once by the call that
	// solved it — so the sums are deterministic at any parallelism.
	Engine solver.Stats

	// Parallelism is the worker count the run used for phase 3's
	// discharge pool (enumeration is one serial pass); the timings below
	// depend on it, the rest of the report does not.
	Parallelism int
	SolverTime  time.Duration // cumulative in-solver time across workers
	CanonTime   time.Duration // cumulative canonicalization time (one per shape) across workers
	EnumTime    time.Duration // wall time of phases 1–2 (one serial pass)
	FineTime    time.Duration // wall time of phase 3 + merge
}

// WithoutTimings returns a copy with the fields that legitimately vary
// between runs — wall times and the worker count — zeroed, leaving
// exactly the deterministic funnel counters. Two runs of the same
// analysis must agree on the result of this method at any parallelism.
func (s Stats) WithoutTimings() Stats {
	s.Parallelism = 0
	for i := range StatsTable {
		if r := &StatsTable[i]; r.dur != nil {
			*r.dur(&s) = 0
		}
	}
	return s
}

// StatsRow declares one Stats field to everything that mirrors it.
type StatsRow struct {
	// JSON is the field's key in the `-json` stats object ("" = summed but
	// not printed); a timing is printed in whole milliseconds.
	JSON string
	// Metric and Help are the Prometheus counter carrying the field ("" =
	// not exported); a timing is counted in whole microseconds.
	Metric, Help string

	num func(*Stats) *int
	dur func(*Stats) *time.Duration // set instead of num for a timing
}

// StatsTable has one row per Stats field, in `-json` key order (which is
// also the order /metrics lists the exported ones in).
var StatsTable = []StatsRow{
	{JSON: "traces", Metric: "weseer_funnel_traces_total", Help: "traces entering the diagnosis",
		num: func(s *Stats) *int { return &s.Traces }},
	{JSON: "txn_pairs", Metric: "weseer_funnel_txn_pairs_total", Help: "transaction instance pairs considered (phase 1 input)",
		num: func(s *Stats) *int { return &s.Pairs }},
	{JSON: "pairs_after_phase1", Metric: "weseer_funnel_pairs_after_phase1_total", Help: "pairs surviving the transaction-level filter",
		num: func(s *Stats) *int { return &s.PairsAfterPhase1 }},
	{JSON: "coarse_cycles", Metric: "weseer_funnel_coarse_cycles_total", Help: "SC-graph deadlock cycles found in phase 2",
		num: func(s *Stats) *int { return &s.CoarseCycles }},
	{JSON: "index_probes", Metric: "weseer_enum_index_probes_total", Help: "posting-list entries walked by the phase-1 conflict index",
		num: func(s *Stats) *int { return &s.IndexProbes }},
	{JSON: "fingerprints",
		num: func(s *Stats) *int { return &s.Fingerprints }},
	{JSON: "lock_filtered", Metric: "weseer_funnel_lock_filtered_total", Help: "cycles discarded by the lock-collision test",
		num: func(s *Stats) *int { return &s.LockFiltered }},
	{JSON: "groups_solved", Metric: "weseer_funnel_groups_solved_total", Help: "cycles discharged in the fine phase (memoized or not)",
		num: func(s *Stats) *int { return &s.GroupsSolved }},
	{JSON: "solver_calls", Metric: "weseer_funnel_solver_calls_total", Help: "group discharges that ran the solver",
		num: func(s *Stats) *int { return &s.SolverCalls }},
	{JSON: "memo_hits", Metric: "weseer_funnel_memo_hits_total", Help: "group discharges served from the solver-call memo table",
		num: func(s *Stats) *int { return &s.MemoHits }},
	{JSON: "canon_calls", Metric: "weseer_canon_calls_total", Help: "distinct formula shapes canonicalized (memo level one)",
		num: func(s *Stats) *int { return &s.CanonCalls }},
	{JSON: "sat", Metric: "weseer_solver_sat_total", Help: "solver verdicts: satisfiable (confirmed deadlock)",
		num: func(s *Stats) *int { return &s.SolverSAT }},
	{JSON: "unsat", Metric: "weseer_solver_unsat_total", Help: "solver verdicts: unsatisfiable",
		num: func(s *Stats) *int { return &s.SolverUNSAT }},
	{JSON: "unknown", Metric: "weseer_solver_unknown_total", Help: "solver verdicts: unknown (budget or cancellation)",
		num: func(s *Stats) *int { return &s.SolverUnknown }},
	{JSON: "decisions", Metric: "weseer_cdcl_decisions_total", Help: "CDCL decisions across solver calls",
		num: func(s *Stats) *int { return &s.Engine.Decisions }},
	{JSON: "conflicts", Metric: "weseer_cdcl_conflicts_total", Help: "CDCL conflicts across solver calls",
		num: func(s *Stats) *int { return &s.Engine.Conflicts }},
	{JSON: "propagations", Metric: "weseer_cdcl_propagations_total", Help: "watched-literal unit propagations across solver calls",
		num: func(s *Stats) *int { return &s.Engine.Propagations }},
	{JSON: "learned_clauses", Metric: "weseer_cdcl_learned_clauses_total", Help: "clauses learned from conflict analysis and theory cores",
		num: func(s *Stats) *int { return &s.Engine.LearnedClauses }},
	{JSON: "backjumps", Metric: "weseer_cdcl_backjumps_total", Help: "non-chronological backjumps across solver calls",
		num: func(s *Stats) *int { return &s.Engine.Backjumps }},
	{JSON: "theory_calls", Metric: "weseer_cdcl_theory_calls_total", Help: "theory checks across solver calls",
		num: func(s *Stats) *int { return &s.Engine.TheoryCalls }},
	// Formula sizes: part of Engine (and of whether Render prints the
	// engine line), reported nowhere else.
	{num: func(s *Stats) *int { return &s.Engine.Atoms }},
	{num: func(s *Stats) *int { return &s.Engine.Clauses }},
	{JSON: "parallelism",
		num: func(s *Stats) *int { return &s.Parallelism }},
	{JSON: "solver_time_ms",
		dur: func(s *Stats) *time.Duration { return &s.SolverTime }},
	{JSON: "canon_time_ms", Metric: "weseer_canon_microseconds_total", Help: "time spent canonicalizing those shapes, summed over workers",
		dur: func(s *Stats) *time.Duration { return &s.CanonTime }},
	{JSON: "enum_time_ms",
		dur: func(s *Stats) *time.Duration { return &s.EnumTime }},
	{JSON: "fine_time_ms",
		dur: func(s *Stats) *time.Duration { return &s.FineTime }},
}

// value is the row's field of s, a timing in whole units of unit.
func (r *StatsRow) value(s *Stats, unit time.Duration) int64 {
	if r.dur != nil {
		return int64(*r.dur(s) / unit)
	}
	return int64(*r.num(s))
}

// JSONValue is what the `-json` stats object prints for the row.
func (r *StatsRow) JSONValue(s *Stats) int64 { return r.value(s, time.Millisecond) }

// MetricValue is what one run with stats s adds to the row's counter.
func (r *StatsRow) MetricValue(s *Stats) int64 { return r.value(s, time.Microsecond) }

// add sums d into s, field by field: how a worker's outcome, itself a
// Stats holding only what that worker counted, joins the run's total.
func (s *Stats) add(d *Stats) {
	for i := range StatsTable {
		if r := &StatsTable[i]; r.dur != nil {
			*r.dur(s) += *r.dur(d)
		} else {
			*r.num(s) += *r.num(d)
		}
	}
}

// solverLatencyBuckets are the solver-latency histogram bounds in
// seconds: the Table II workload's calls span ~100µs to tens of ms, with
// the tail bounds catching pathological formulas.
var solverLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// Metrics are the analyzer's instruments on one registry: a counter per
// StatsTable row that names one, so that after a run /metrics and
// Result.Stats agree, and the few numbers with no place in the report
// (the C-edge templates and their instances, deterministic too; latency
// and chain progress are live views). The zero value is inert.
type Metrics struct {
	rows []*obs.Counter // parallel to StatsTable, nil where a row names no metric

	edgeInstances, edgeTemplates *obs.Counter
	solverLatency                *obs.Histogram
	chainsTotal, chainsDone      *obs.Gauge
}

// RegisterMetrics returns the analyzer's instruments on reg, creating
// the ones reg does not have yet. An analysis does this itself for the
// observer it is given; a daemon also calls it once at start-up so that
// /metrics lists every instrument, at zero, before the first analysis.
func RegisterMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{rows: make([]*obs.Counter, len(StatsTable))}
	for i, r := range StatsTable {
		if r.Metric != "" {
			m.rows[i] = reg.Counter(r.Metric, r.Help)
		}
	}
	m.edgeInstances = reg.Counter("weseer_edge_cache_hits_total", "C-edge conflict conditions served from the template memo, two per cycle formula built")
	m.edgeTemplates = reg.Counter("weseer_edge_cache_builds_total", "C-edge condition templates built, one per (statement skeleton pair, row prefix)")
	m.solverLatency = reg.Histogram("weseer_solver_seconds", "per-call solver latency in seconds", solverLatencyBuckets)
	m.chainsTotal = reg.Gauge("weseer_chains_total", "phase-3 chains enumerated for discharge")
	m.chainsDone = reg.Gauge("weseer_chains_done", "phase-3 chains discharged so far")
	return m
}

// publish adds d — what one stage or one chain counted — to the
// counters, as the merge adds it to Result.Stats.
func (m *Metrics) publish(d *Stats) {
	for i, c := range m.rows {
		if c != nil {
			c.Add(StatsTable[i].MetricValue(d))
		}
	}
}

// Render formats the per-phase statistics.
func (s Stats) Render() string {
	idx := ""
	if s.IndexProbes > 0 {
		idx = fmt.Sprintf(" [index: %d postings probed]", s.IndexProbes)
	}
	fps := ""
	if s.Fingerprints > 0 {
		fps = fmt.Sprintf(" [fingerprints: %d distinct]", s.Fingerprints)
	}
	memo := ""
	if s.MemoHits > 0 || s.CanonCalls > 0 {
		memo = fmt.Sprintf(", %d memo hits over %d shapes", s.MemoHits, s.CanonCalls)
	}
	canon := ""
	if s.CanonTime > 0 {
		canon = fmt.Sprintf(" (canon %v)", s.CanonTime.Round(1000))
	}
	par := ""
	if s.Parallelism > 1 {
		par = fmt.Sprintf(" on %d workers", s.Parallelism)
	}
	engine := ""
	if s.Engine != (solver.Stats{}) {
		e := s.Engine
		engine = fmt.Sprintf(
			"\nengine: %d decisions, %d conflicts, %d propagations, %d learned clauses, %d backjumps, %d theory calls",
			e.Decisions, e.Conflicts, e.Propagations, e.LearnedClauses, e.Backjumps, e.TheoryCalls)
	}
	return fmt.Sprintf(
		"phases: %d traces, %d txn pairs -> %d after txn-level filter -> %d coarse cycles -> %d lock-filtered, %d groups solved via %d solver calls%s (SAT %d / UNSAT %d / UNKNOWN %d) in %v%s%s%s%s%s",
		s.Traces, s.Pairs, s.PairsAfterPhase1, s.CoarseCycles,
		s.LockFiltered, s.GroupsSolved, s.SolverCalls, memo,
		s.SolverSAT, s.SolverUNSAT, s.SolverUnknown, s.SolverTime.Round(1000), canon, par, idx, fps, engine)
}
