// Package obs is WeSEER's stdlib-only telemetry library: span tracing
// with a Chrome trace_event exporter, a Prometheus-text metrics
// registry, live run progress, and a debug HTTP server (/metrics,
// /progress, net/http/pprof). It knows nothing about what it measures:
// each instrumented package (core, concolic, history) registers its own
// instruments on the observer's registry.
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

// Observer bundles the three telemetry sinks one diagnosis run feeds:
// the span tracer, the metrics registry, and the live progress tracker.
// Construct with NewObserver; the zero value and nil are valid no-op
// sinks, and so is an observer with only some sinks set (a daemon keeps
// no tracer: spans it could never export would only accumulate).
type Observer struct {
	Tracer   *Tracer
	Metrics  *Registry
	Progress *Progress
}

// NewObserver returns an observer with all sinks wired: a fresh tracer,
// an empty registry, and a progress tracker.
func NewObserver() *Observer {
	return &Observer{
		Tracer:   NewTracer(),
		Metrics:  NewRegistry(),
		Progress: NewProgress(),
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
