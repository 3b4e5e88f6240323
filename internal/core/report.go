package core

import (
	"fmt"
	"sort"
	"strings"

	"weseer/internal/smt"
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
	if holds.Deferred() {
		fmt.Fprintf(b, "      (stmt #%d was sent at %s — write-behind flush)\n", holds.Seq, holds.Sent.Top())
	}
}

// renderModel prints the model restricted to meaningful variables: the
// two traces' API inputs and result aliases, skipping internal range-
// enlargement variables. The model speaks the instances' symbol spaces
// and the traces are the recorded ones, so an input is matched as
// Prefix + Input.Name.
func renderModel(b *strings.Builder, m *smt.Model, c Cycle) {
	inputs := map[string]bool{}
	for _, t := range []*instance{c.T1, c.T2} {
		for _, in := range t.Trace.Inputs {
			inputs[t.Prefix+in.Name] = true
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
