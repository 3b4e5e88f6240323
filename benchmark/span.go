package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Start and End are seconds since the tracer's epoch. Parent is the ID of
// the span that caused it (-1 for a root); Op groups the spans of one
// operation (-1 for layer probes that are not on the user path).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// Derived marks a span whose bounds come from a duration the layer
	// reports about itself (core.Stats) rather than from two clock reads
	// around a call.
	Derived bool `json:"derived,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run pays no cost.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the tracer's clock; 0 on a nil tracer.
func (t *tracer) now() float64 {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch).Seconds()
}

// add records a finished span and returns its ID.
func (t *tracer) add(s span) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

// start opens a span; the returned func closes it.
func (t *tracer) start(name string, parent, op int) (id int, end func()) {
	if t == nil {
		return -1, func() {}
	}
	id = t.add(span{Parent: parent, Op: op, Name: name, Start: t.now(), End: -1})
	return id, func() {
		now := t.now()
		t.mu.Lock()
		t.spans[id].End = now
		t.mu.Unlock()
	}
}

// timed runs fn inside a span and returns how long it took.
func (t *tracer) timed(name string, parent, op int, fn func()) float64 {
	_, end := t.start(name, parent, op)
	t0 := time.Now()
	fn()
	d := time.Since(t0).Seconds()
	end()
	return d
}

func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id]
}

// finished returns the spans that were closed; an op cut off by the end
// of the run leaves its span open, and that span is dropped.
func (t *tracer) finished() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes maps each span's ID to its duration minus the part of its
// interval that its child spans cover; overlapping children (parallel
// work) are counted once.
func selfTimes(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
	P50S   float64 `json:"p50_s"`
}

// layerTable groups spans by name, largest self time first.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	durs := map[string][]float64{}
	rows := map[string]*layerRow{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.TotalS += s.dur()
		r.SelfS += self[s.ID]
		durs[s.Name] = append(durs[s.Name], s.dur())
	}
	out := make([]layerRow, 0, len(rows))
	for name, r := range rows {
		r.P50S = median(durs[name])
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfS != out[j].SelfS {
			return out[i].SelfS > out[j].SelfS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// spanCoverage is the share of the op spans' wall time that named layer
// spans below them account for: 1 minus the op spans' own self time.
func spanCoverage(spans []span) float64 {
	self := selfTimes(spans)
	var wall, own float64
	for _, s := range spans {
		if s.Name == "op" {
			wall += s.dur()
			own += self[s.ID]
		}
	}
	if wall == 0 {
		return 0
	}
	return 1 - own/wall
}

func writeJSONL(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeChromeTrace writes the spans as Chrome trace_event JSON (open in
// chrome://tracing or Perfetto); one track per op.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{s.Name, "X", s.Start * 1e6, s.dur() * 1e6, 1, s.Op + 1})
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events}); err != nil {
		return err
	}
	return bw.Flush()
}
