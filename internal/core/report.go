package core

import (
	"sort"
	"strconv"
	"strings"

	"weseer/internal/smt"
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
}

// Render formats the analysis result for developers.
func (r *Result) Render() string {
	var b strings.Builder
	writeLine(&b, "WeSEER deadlock report: ", strconv.Itoa(len(r.Deadlocks)), " potential deadlock(s)")
	writeLine(&b, r.Stats.Render())
	for i, d := range r.Deadlocks {
		writeLine(&b, "\n=== Deadlock ", strconv.Itoa(i+1), " ===")
		d.render(&b)
	}
	return b.String()
}

// writeLine writes parts and a newline to b.
func writeLine(b *strings.Builder, parts ...string) {
	for _, p := range parts {
		b.WriteString(p)
	}
	b.WriteByte('\n')
}

// Render formats one deadlock.
func (d *Deadlock) Render() string {
	var b strings.Builder
	d.render(&b)
	return b.String()
}

func (d *Deadlock) render(b *strings.Builder) {
	c := d.Cycle
	writeLine(b, "APIs: ", d.APIs[0], " -- ", d.APIs[1], " (", strconv.Itoa(d.Count), " coarse cycle(s) folded)")
	writeLine(b, "fingerprint: ", d.Fingerprint())
	writeLine(b, "hold-and-wait cycle over tables [", c.Table1, ", ", c.Table2, "]:")
	renderSide(b, "T1", d.APIs[0], c.S1a, c.S1b)
	renderSide(b, "T2", d.APIs[1], c.S2a, c.S2b)
	if d.Model != nil {
		b.WriteString("reproducing assignment (API inputs and DB state):\n")
		renderModel(b, d.Model, c)
	}
}

func renderSide(b *strings.Builder, name, api string, holds, waits *trace.Stmt) {
	hs, ws := strconv.Itoa(holds.Seq), strconv.Itoa(waits.Seq)
	writeLine(b, "  ", name, " (", api, "):")
	writeLine(b, "    holds lock from stmt #", hs, ": ", holds.SQL)
	writeLine(b, "      triggered at: ", holds.Trigger.Top().String())
	writeLine(b, "    waits at stmt #", ws, ": ", waits.SQL)
	writeLine(b, "      triggered at: ", waits.Trigger.Top().String())
	if holds.Deferred() {
		writeLine(b, "      (stmt #", hs, " was sent at ", holds.Sent.Top().String(), " — write-behind flush)")
	}
}

// renderModel prints the model restricted to meaningful variables: the
// two traces' API inputs and result aliases, skipping internal range-
// enlargement variables. The model speaks the instances' symbol spaces
// and the traces are the recorded ones, so an input is matched as
// Prefix + Input.Name.
func renderModel(b *strings.Builder, m *smt.Model, c Cycle) {
	inputs := make(map[string]bool, len(c.T1.Trace.Inputs)+len(c.T2.Trace.Inputs))
	for _, t := range [2]*instance{c.T1, c.T2} {
		for _, in := range t.Trace.Inputs {
			inputs[t.Prefix+in.Name] = true
		}
	}
	var names []string
	for n := range m.Vars {
		if inputs[n] || strings.Contains(n, ".res") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		kind := "    dbrow  "
		if inputs[n] {
			kind = "    input  "
		}
		writeLine(b, kind, n, " = ", m.Vars[n].String())
	}
}
