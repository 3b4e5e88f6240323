package obs

// Span tracing for the diagnosis pipeline. The tracer is deliberately
// minimal: spans are (name, logical thread, start, duration, attrs)
// tuples collected in memory and exported after — or during — a run as
// Chrome trace_event JSON (load in chrome://tracing or Perfetto to see
// the phase-3 worker pool's actual parallelism and stragglers; `jq
// .traceEvents[]` is the flat view for ad-hoc tooling).
//
// Telemetry is observational only: spans never feed back into the
// analysis, so the determinism guarantee of core.AnalyzeContext (byte-
// identical reports at any parallelism) is untouched. Span *timings*
// naturally vary between runs; span *names and counts* for a completed
// run do not.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Attr is one key/value span attribute. Values are kept as strings so
// the exporters stay trivial; use the typed constructors.
type Attr struct {
	Key   string
	Value string
}

// String returns a string-valued attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int returns an int-valued attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: fmt.Sprintf("%d", v)} }

// Bool returns a bool-valued attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: fmt.Sprintf("%t", v)} }

// Duration returns a duration-valued attribute.
func Duration(k string, v time.Duration) Attr { return Attr{Key: k, Value: v.String()} }

// SpanEvent is one completed span.
type SpanEvent struct {
	Name  string
	TID   int // logical thread: 0 = orchestrator, 1..N = phase-3 workers
	Start time.Duration
	Dur   time.Duration
	Attrs []Attr
}

// Tracer collects completed spans. All methods are safe for concurrent
// use; a nil *Tracer is a valid no-op sink.
type Tracer struct {
	base time.Time

	mu     sync.Mutex
	events []SpanEvent
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer { return &Tracer{base: time.Now()} }

// Span is a handle to one in-flight span; End completes it. The zero
// Span (from a nil tracer) is a valid no-op.
type Span struct {
	t     *Tracer
	name  string
	tid   int
	start time.Duration
	attrs []Attr
}

// Start opens a span on logical thread tid. Attrs given at Start and at
// End are merged on the completed event.
func (t *Tracer) Start(tid int, name string, attrs ...Attr) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, tid: tid, start: time.Since(t.base), attrs: attrs}
}

// End completes the span, appending any final attributes.
func (s Span) End(attrs ...Attr) {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.base)
	ev := SpanEvent{
		Name:  s.name,
		TID:   s.tid,
		Start: s.start,
		Dur:   now - s.start,
		Attrs: append(s.attrs, attrs...),
	}
	s.t.mu.Lock()
	s.t.events = append(s.t.events, ev)
	s.t.mu.Unlock()
}

// Events returns a copy of the completed spans, ordered by start time.
func (t *Tracer) Events() []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]SpanEvent, len(t.events))
	copy(out, t.events)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// chromeEvent is one trace_event entry: a complete ("ph":"X") event with
// microsecond timestamps, as chrome://tracing and Perfetto consume.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`  // µs since trace start
	Dur  int64             `json:"dur"` // µs
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the spans as Chrome trace_event JSON
// ({"traceEvents": [...]}, "X" complete events). Thread 0 is the
// orchestrator; threads 1..N are the phase-3 workers, so the worker
// pool's real parallelism — and its stragglers — are visible directly
// on the timeline.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	out := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	for _, ev := range t.Events() {
		ce := chromeEvent{
			Name: ev.Name, Cat: "weseer", Ph: "X",
			TS: ev.Start.Microseconds(), Dur: ev.Dur.Microseconds(),
			PID: 1, TID: ev.TID,
		}
		if len(ev.Attrs) > 0 {
			ce.Args = make(map[string]string, len(ev.Attrs))
			for _, a := range ev.Attrs {
				ce.Args[a.Key] = a.Value
			}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
