package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"weseer/internal/smt"
	"weseer/internal/solver"
	"weseer/internal/staticlint"
	"weseer/internal/trace"
)

// Report rendering: for each confirmed deadlock WeSEER reports the
// involved APIs, the satisfying assignment of API inputs and database
// state (usable to reproduce the deadlock), the SQL statements forming
// the hold-and-wait cycle, and each statement's triggering code location
// (Fig. 2's output box).

// Result is a full diagnosis report: the confirmed deadlocks plus the
// per-phase funnel statistics.
type Result struct {
	Deadlocks []*Deadlock
	Stats     Stats
	// CanonicalOrder is the cross-API lock-order canonicalization over
	// the run's transaction shapes: the global acquisition order plus the
	// ranked feedback-edge reorder suggestions — the f9–f11-style fixes
	// that kill whole inversion families at once. AnalyzeContext leaves it
	// nil; a caller that prints it (Render, the -json report, the fix
	// plan's suggestion ranks) attaches
	// staticlint.CanonicalizeTraces(traces, scm) first.
	CanonicalOrder *staticlint.CanonicalOrder
	// Metrics is the observer's flattened metrics snapshot taken when the
	// run finished (nil without WithObserver): the same counters /metrics
	// serves, frozen into the report so a run's telemetry travels with
	// it. Purely observational — not part of the deterministic report
	// surface (it includes timing histograms).
	Metrics map[string]float64
}

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
	// loop's Pairs signature probes. Zero when WithoutPhase1 bypasses the
	// index. Deterministic at any parallelism.
	IndexProbes  int
	LockFiltered int // cycles discarded by the lock-collision test
	GroupsSolved int // cycles discharged in the fine phase (memoized or not)

	// Phase-0 static prescreen counters (zero unless StaticPrescreen).
	PrescreenPairs       int // pairs examined by the static pair screen
	PrescreenPairsPruned int // pairs discarded before cycle enumeration
	PrescreenSaved       int // solver calls avoided by group refutation

	// Fingerprints is the number of distinct deadlock fingerprints among
	// the reported deadlocks (see Deadlock.Fingerprint) — the number of
	// history-store events this run contributes. Deterministic at any
	// parallelism; zero when nothing was reported.
	Fingerprints int

	// Memoization split of GroupsSolved: SolverCalls discharges actually
	// ran the solver (one per distinct canonical formula); MemoHits were
	// served from the memo table. SolverCalls + MemoHits == GroupsSolved
	// unless memoization is disabled (then MemoHits is 0). CanonCalls is
	// the memo table's first level: the number of distinct formula shapes
	// (formulas up to renaming) it canonicalized, so SolverCalls <=
	// CanonCalls <= GroupsSolved. It counts table entries, hence is
	// deterministic at any parallelism; zero when memoization is disabled.
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

	// Parallelism is the worker count the run used for the enumeration
	// and discharge pools; the timings below depend on it, the rest of
	// the report does not.
	Parallelism int
	SolverTime  time.Duration // cumulative in-solver time across workers
	CanonTime   time.Duration // cumulative canonicalization time (one per shape) across workers
	EnumTime    time.Duration // wall time of phases 1–2 (pool + merge)
	FineTime    time.Duration // wall time of phase 3 + merge
}

// WithoutTimings returns a copy with the fields that legitimately vary
// between runs — wall times and the worker count — zeroed, leaving
// exactly the deterministic funnel counters. Two runs of the same
// analysis must agree on the result of this method at any parallelism.
func (s Stats) WithoutTimings() Stats {
	s.Parallelism = 0
	s.SolverTime = 0
	s.CanonTime = 0
	s.EnumTime = 0
	s.FineTime = 0
	return s
}

// Render formats the analysis result for developers.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "WeSEER deadlock report: %d potential deadlock(s)\n", len(r.Deadlocks))
	fmt.Fprintf(&b, "%s\n", r.Stats.Render())
	b.WriteString(RenderSuggestions(r.CanonicalOrder))
	for i, d := range r.Deadlocks {
		fmt.Fprintf(&b, "\n=== Deadlock %d ===\n%s", i+1, d.Render())
	}
	return b.String()
}

// RenderSuggestions formats the canonical order's ranked reorder
// suggestions for the text report ("" when there are none or co is nil).
func RenderSuggestions(co *staticlint.CanonicalOrder) string {
	if co == nil || len(co.Suggestions) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "ranked lock-order fixes (canonical order over %d templates, %d conflicting edge(s)):\n",
		co.Templates, len(co.Suggestions))
	for _, s := range co.Suggestions {
		fmt.Fprintf(&b, "  #%d acquire %s before %s (%d violating vs %d supporting template(s))\n",
			s.Rank, s.To, s.From, s.Violators, s.Supporters)
		for _, v := range s.Sites {
			site := "(template)"
			if v.File != "" {
				site = fmt.Sprintf("%s:%d", v.File, v.Line)
			}
			fmt.Fprintf(&b, "      reorder %s at %s\n", v.API, site)
		}
	}
	return b.String()
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
	pre := ""
	if s.PrescreenPairs > 0 || s.PrescreenSaved > 0 {
		pre = fmt.Sprintf(" [prescreen: %d pairs screened, %d pruned, %d solver calls saved]",
			s.PrescreenPairs, s.PrescreenPairsPruned, s.PrescreenSaved)
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
		"phases: %d traces, %d txn pairs -> %d after txn-level filter -> %d coarse cycles -> %d lock-filtered, %d groups solved via %d solver calls%s (SAT %d / UNSAT %d / UNKNOWN %d) in %v%s%s%s%s%s%s",
		s.Traces, s.Pairs, s.PairsAfterPhase1, s.CoarseCycles,
		s.LockFiltered, s.GroupsSolved, s.SolverCalls, memo,
		s.SolverSAT, s.SolverUNSAT, s.SolverUnknown, s.SolverTime.Round(1000), canon, par, idx, fps, pre, engine)
}

// Render formats one deadlock.
func (d *Deadlock) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "APIs: %s -- %s (%d coarse cycle(s) folded)\n", d.APIs[0], d.APIs[1], d.Count)
	fmt.Fprintf(&b, "fingerprint: %s\n", d.Fingerprint())
	c := d.Cycle
	fmt.Fprintf(&b, "hold-and-wait cycle over tables [%s, %s]:\n", c.Table1, c.Table2)
	renderSide(&b, "T1", d.APIs[0], c.S1a, c.S1b)
	renderSide(&b, "T2", d.APIs[1], c.S2a, c.S2b)
	if d.Model != nil {
		fmt.Fprintf(&b, "reproducing assignment (API inputs and DB state):\n")
		renderModel(&b, d.Model, c)
	}
	return b.String()
}

func renderSide(b *strings.Builder, name, api string, holds, waits *trace.Stmt) {
	fmt.Fprintf(b, "  %s (%s):\n", name, api)
	fmt.Fprintf(b, "    holds lock from stmt #%d: %s\n", holds.Seq, holds.SQL)
	fmt.Fprintf(b, "      triggered at: %s\n", holds.Trigger.Top())
	fmt.Fprintf(b, "    waits at stmt #%d: %s\n", waits.Seq, waits.SQL)
	fmt.Fprintf(b, "      triggered at: %s\n", waits.Trigger.Top())
	if holds.Trigger.Top() != holds.Sent.Top() && holds.Sent.Top().File != "" {
		fmt.Fprintf(b, "      (stmt #%d was sent at %s — write-behind flush)\n", holds.Seq, holds.Sent.Top())
	}
}

// renderModel prints the model restricted to meaningful variables: the
// two traces' API inputs and result aliases, skipping internal range-
// enlargement variables.
func renderModel(b *strings.Builder, m *smt.Model, c Cycle) {
	inputs := map[string]bool{}
	for _, tr := range []*trace.Trace{c.T1.Trace, c.T2.Trace} {
		for _, in := range tr.Inputs {
			inputs[in.Name] = true
		}
	}
	names := make([]string, 0, len(m.Vars))
	for n := range m.Vars {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		switch {
		case inputs[n]:
			fmt.Fprintf(b, "    input  %s = %s\n", n, m.Vars[n])
		case strings.Contains(n, ".res"):
			fmt.Fprintf(b, "    dbrow  %s = %s\n", n, m.Vars[n])
		}
	}
}
