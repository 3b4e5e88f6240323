package main

import "encoding/json"

// runSeconds is how long one run's timed part measures. The driver makes
// 4 + 22 x 4 = 92 runs inside 3420 s, builds included, so a run may cost
// about 36 s with its three set-ups, its reference samples and a last op
// that overshoots; those cost 6 to 11 s, and half as much again when the
// machine is slow (README, "Run length").
const runSeconds = 20

// metricDef names one metric. Bound is the share of the baseline median
// by which an end-to-end metric may worsen before a change counts as a
// regression; layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"table2", "paper's evaluation apps, one fresh process per diagnosis: tiny traces, few memo hits, so core phase 3 and the solver dominate; collection and enumeration gains must not show"},
	{"gen1056", "1056-template generated corpus per process: generation, concolic collection, enumeration index and the non-solver half of phase 3 (canon, cone, memo) dominate; the solver is ~11%"},
	{"serve-cycle", "long-lived daemon over a 30000-event store: parallel re-analysis of a small batch, WAL appends, three query shapes and a close/replay/reopen; the only store and interner-growth path"},
	{"load", "two closed-loop clients on unfixed broadleaf: minidb locking, deadlock detection, victim retry and orm flush; bypasses core, solver and smt, so analysis changes must leave it flat"},
}

// Every workload reports the same five end-to-end metrics, measured with
// tracing off. Ten runs of one tree spread by up to 14 % on the shared
// 2-core box even after scaling (CALIBRATION.md), so the time metrics
// carry the widest bound the driver allows.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_wall_s.p50", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_s_per_op", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayer lists the traced run's metrics; module names are the layers.
// A workload that does not exercise a layer reports 0 for it. The unit
// count is kept for exact values, which must repeat from one run of a
// seed to the next (TestSmoke); the sizes of the report and of the trace
// batch repeat too, the store's log does not (it holds timestamps).
var perLayer = []metricDef{
	{"apps.open_s", "s", "lower", 0},
	{"appkit.collect_s", "s", "lower", 0},
	{"appkit.traces", "count", "lower", 0},
	{"appkit.stmts", "count", "lower", 0},
	{"concolic.collect_off_s", "s", "lower", 0},
	{"concolic.overhead_ratio", "ratio", "lower", 0},
	{"sqlast.parse_s", "s", "lower", 0},
	{"sqlast.stmts", "count", "lower", 0},
	{"trace.encode_s", "s", "lower", 0},
	{"trace.decode_s", "s", "lower", 0},
	{"trace.payload_bytes", "bytes", "lower", 0},
	{"lockmodel.genlocks_s", "s", "lower", 0},
	{"lockmodel.conflict_cond_s", "s", "lower", 0},
	{"smt.canon_s", "s", "lower", 0},
	{"core.analyze_s", "s", "lower", 0},
	{"core.enum_s", "s", "lower", 0},
	{"core.coarse_s", "s", "lower", 0},
	{"core.fine_s", "s", "lower", 0},
	{"core.solver_s", "s", "lower", 0},
	{"core.fine_nonsolver_s", "s", "lower", 0},
	{"core.render_s", "s", "lower", 0},
	{"core.report_bytes", "bytes", "lower", 0},
	{"core.pairs", "count", "lower", 0},
	{"core.pairs_after_phase1", "count", "lower", 0},
	{"core.index_probes", "count", "lower", 0},
	{"core.coarse_cycles", "count", "lower", 0},
	{"core.lock_filtered", "count", "higher", 0},
	{"core.groups_solved", "count", "lower", 0},
	{"core.solver_calls", "count", "lower", 0},
	{"core.memo_hits", "count", "higher", 0},
	{"core.memo_hit_ratio", "ratio", "higher", 0},
	{"core.deadlocks", "count", "lower", 0},
	{"core.fingerprints", "count", "lower", 0},
	{"solver.s_per_call", "s", "lower", 0},
	{"solver.decisions", "count", "lower", 0},
	{"solver.conflicts", "count", "lower", 0},
	{"solver.propagations", "count", "lower", 0},
	{"solver.theory_calls", "count", "lower", 0},
	{"solver.learned_clauses", "count", "lower", 0},
	{"core.analyze_par_s", "s", "lower", 0},
	{"core.parallel_speedup", "ratio", "higher", 0},
	{"obs.observer_overhead_ratio", "ratio", "lower", 0},
	{"obs.http_roundtrip_s", "s", "lower", 0},
	{"staticlint.vet_s", "s", "lower", 0},
	{"staticlint.findings", "count", "lower", 0},
	{"staticlint.prescreen_analyze_s", "s", "lower", 0},
	{"core.prescreen_saved", "count", "higher", 0},
	{"fixapply.plan_s", "s", "lower", 0},
	{"replay.reproduce_s", "s", "lower", 0},
	{"replay.confirmed_share", "ratio", "higher", 0},
	{"history.ingest_traces_s", "s", "lower", 0},
	{"history.ingest_events_s", "s", "lower", 0},
	{"history.store_events_per_s", "1/s", "higher", 0},
	{"history.query_patterns_s", "s", "lower", 0},
	{"history.query_events_s", "s", "lower", 0},
	{"history.query_tables_s", "s", "lower", 0},
	{"history.reopen_s", "s", "lower", 0},
	{"history.log_bytes", "bytes", "lower", 0},
	{"history.bytes_per_event", "bytes", "lower", 0},
	{"history.events", "count", "lower", 0},
	{"btree.log_append_s", "s", "lower", 0},
	{"btree.log_reload_s", "s", "lower", 0},
	{"workload.api_wall_s.p99", "s", "lower", 0},
	{"workload.retries_per_kop", "1/kop", "lower", 0},
	{"minidb.deadlocks_per_kop", "1/kop", "lower", 0},
	{"minidb.lock_waits_per_kop", "1/kop", "lower", 0},
	{"minidb.statements_per_s", "1/s", "higher", 0},
	{"minidb.aborts_per_s", "1/s", "lower", 0},
	{"proc.startup_s", "s", "lower", 0},
	{"go.allocs_per_op", "1/op", "lower", 0},
	{"go.alloc_mb_per_op", "MB", "lower", 0},
	{"go.gc_cpu_share", "ratio", "lower", 0},
	{"go.heap_live_mb_end", "MB", "lower", 0},
	{"go.heap_growth_mb_per_op", "MB", "lower", 0},
	{"bench.trace_overhead_ratio", "ratio", "lower", 0},
	{"bench.span_coverage", "ratio", "higher", 0},
	{"bench.noise_probe_s", "s", "lower", 0},
	{"bench.ref_child_s", "s", "lower", 0},
}

// benchmarkJSON renders BENCHMARK.json from the tables above, so the
// file at the repository root and the harness cannot drift apart
// (TestBenchmarkJSONInSync).
func benchmarkJSON() ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
