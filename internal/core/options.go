package core

import (
	"weseer/internal/obs"
	"weseer/internal/schema"
)

// options is what the functional options below set; each field is
// documented at its option.
type options struct {
	CoarseOnly       bool
	UseConcretePlans bool
	Parallelism      int
	Observer         *obs.Observer
}

// Option is a functional analysis option, applied by NewAnalyzer.
type Option func(*options)

// WithParallelism sets the phase-3 worker count: the number of goroutines
// discharging candidate chains (n <= 0 selects GOMAXPROCS). Enumeration
// (phases 1–2) is serial. Reports are deterministic at any setting: chain
// outcomes are merged per chain index, in enumeration order.
func WithParallelism(n int) Option {
	return func(o *options) { o.Parallelism = n }
}

// WithPrescreen does nothing.
//
// Deprecated: the analyzer runs the paper's three phases and has no static
// prescreen; kept only because benchmark/probes.go still passes it.
func WithPrescreen() Option {
	return func(*options) {}
}

// WithCoarseOnly stops after phase 2 and reports raw coarse cycles — the
// STEPDAD/REDACT baseline mode (Sec. VII-B).
func WithCoarseOnly() Option {
	return func(o *options) { o.CoarseOnly = true }
}

// WithConcretePlans restricts lock modeling to each statement's recorded
// execution plan instead of every possible index — the paper's Sec. V-D
// future-work refinement, removing the all-join-orders source of false
// positives.
func WithConcretePlans() Option {
	return func(o *options) { o.UseConcretePlans = true }
}

// WithObserver attaches an observability sink: the run emits spans
// (concolic extraction is instrumented separately via
// concolic.WithObserver; here: phases 1–3, each phase-3 chain, each
// solver call), funnel/engine metrics, and live progress into o.
// Telemetry never feeds back into the analysis, so the determinism
// guarantee — byte-identical reports at any parallelism — holds with
// the observer attached. The default (nil) disables all instrumentation
// at zero cost: every hook is guarded on the observer.
func WithObserver(o *obs.Observer) Option {
	return func(opts *options) { opts.Observer = o }
}

// NewAnalyzer returns an analyzer for a schema, configured by functional
// options.
func NewAnalyzer(scm *schema.Schema, opts ...Option) *Analyzer {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return &Analyzer{scm: scm, opts: o}
}
