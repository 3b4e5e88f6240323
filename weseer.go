// Package weseer is a deadlock diagnosis toolkit for ORM-based database
// applications, reproducing WeSEER from "Database Deadlock Diagnosis for
// Large-Scale ORM-Based Web Applications" (ICDE 2023).
//
// WeSEER extracts an application's transactions — SQL statement templates
// with symbolic parameters, symbolic result aliases, and the path
// conditions enabling them — by running API unit tests under concolic
// execution, then diagnoses potential deadlocks with a three-phase
// analysis that ends in fine-grained row/range-lock modeling discharged
// by an SMT solver. Reports include the hold-and-wait cycle, the
// triggering code location of every involved statement (ORM write-behind
// aware), and a satisfying assignment of API inputs and database state
// that reproduces the deadlock.
//
// The package re-exports the toolkit's layers:
//
//   - Schema/database: NewSchema, OpenDB — an embedded lock-based SQL
//     engine with InnoDB-style record/gap/next-key locking and
//     detect-and-recover deadlock handling.
//   - ORM: NewMapping, NewSession — a Hibernate-style mapper with read
//     caching, write-behind flushing, and lazy collections.
//   - Concolic engine: NewEngine, Engine.MakeSymbolic, Engine.If.
//   - Collection: UnitTest, Collect.
//   - Analysis: AnalyzeContext — the three-phase deadlock diagnosis,
//     with context cancellation, parallel solving on GOMAXPROCS workers,
//     and functional options (WithCoarseOnly, ...).
//   - Observability: NewObserver, WithObserver, StartDebugServer —
//     spans, metrics, and live progress for a diagnosis run, all
//     observational (reports stay byte-identical with an observer
//     attached).
//
// See examples/quickstart for an end-to-end walkthrough.
package weseer

import (
	"context"

	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/minidb"
	"weseer/internal/obs"
	"weseer/internal/orm"
	"weseer/internal/schema"
	"weseer/internal/trace"
)

// Schema layer.
type (
	// Schema describes tables, columns, and indexes.
	Schema = schema.Schema
	// TableBuilder declares one table fluently.
	TableBuilder = schema.TableBuilder
	// ColType is a column data type.
	ColType = schema.ColType
)

// Column types.
const (
	Int     = schema.Int
	Decimal = schema.Decimal
	Varchar = schema.Varchar
)

// NewSchema returns an empty schema.
func NewSchema() *Schema { return schema.New() }

// Database layer.
type (
	// DB is the embedded lock-based SQL engine standing in for MySQL.
	DB = minidb.DB
	// DBConfig tunes the engine.
	DBConfig = minidb.Config
	// DBStats are cumulative engine counters.
	DBStats = minidb.Stats
)

// OpenDB creates a database for the schema.
func OpenDB(s *Schema, cfg DBConfig) *DB { return minidb.Open(s, cfg) }

// Concolic layer.
type (
	// Engine is a concolic execution session.
	Engine = concolic.Engine
	// Value is a concolic value: concrete plus optional symbolic part.
	Value = concolic.Value
	// Conn is the intercepted database connection.
	Conn = concolic.Conn
	// Mode selects how much the engine tracks.
	Mode = concolic.Mode
)

// Engine modes.
const (
	ModeOff       = concolic.ModeOff
	ModeInterpret = concolic.ModeInterpret
	ModeConcolic  = concolic.ModeConcolic
)

// NewEngine returns a concolic engine in the given mode.
func NewEngine(mode Mode) *Engine { return concolic.New(mode) }

// NewConn wraps a database for one engine session.
func NewConn(e *Engine, db *DB) *Conn { return concolic.NewConn(e, db) }

// Concrete value constructors.
var (
	IntValue  = concolic.Int
	StrValue  = concolic.Str
	RealValue = concolic.Real
	BoolValue = concolic.Bool
)

// ORM layer.
type (
	// Mapping holds per-table ORM metadata.
	Mapping = orm.Mapping
	// Collection declares a lazily-loaded relation.
	Collection = orm.Collection
	// Session is the persistence context.
	Session = orm.Session
	// Entity is a persistent object.
	Entity = orm.Entity
)

// NewMapping creates ORM metadata over a schema.
func NewMapping(s *Schema) *Mapping { return orm.NewMapping(s) }

// NewSession opens a persistence context over a connection.
func NewSession(m *Mapping, c *Conn) *Session { return orm.NewSession(m, c) }

// Collection layer.
type (
	// UnitTest is one API unit test used for trace collection.
	UnitTest = appkit.UnitTest
	// Trace is one collected API execution.
	Trace = trace.Trace
)

// Collect runs unit tests sequentially under one engine mode and returns
// their traces.
func Collect(tests []UnitTest, mode Mode) ([]*Trace, error) {
	return appkit.Collect(tests, mode)
}

// Analysis layer.
type (
	// Analyzer runs deadlock diagnosis over collected traces.
	Analyzer = core.Analyzer
	// AnalyzerOption is a functional analysis option for NewAnalyzer.
	AnalyzerOption = core.Option
	// AnalysisResult is the diagnosis outcome.
	AnalysisResult = core.Result
	// AnalysisStats is the per-phase diagnosis funnel.
	AnalysisStats = core.Stats
	// Deadlock is one reported deadlock.
	Deadlock = core.Deadlock
)

// Functional analysis options, applied by NewAnalyzer.
var (
	// WithCoarseOnly stops after phase 2 (STEPDAD/REDACT baseline).
	WithCoarseOnly = core.WithCoarseOnly
	// WithConcretePlans restricts lock modeling to recorded plans.
	WithConcretePlans = core.WithConcretePlans
	// WithObserver attaches an observability sink to the analysis.
	WithObserver = core.WithObserver
)

// Observability layer.
type (
	// Observer bundles a run's telemetry sinks: span tracer, metrics
	// registry, and live progress.
	Observer = obs.Observer
	// DebugServer serves an observer's live state over HTTP (/metrics,
	// /progress, /debug/pprof).
	DebugServer = obs.DebugServer
)

// NewObserver returns an observer with all sinks wired. Attach it to an
// analysis with WithObserver (and to an Engine with
// concolic.WithObserver for extraction spans); telemetry is
// observational only.
func NewObserver() *Observer { return obs.NewObserver() }

// StartDebugServer serves o's metrics, progress, and pprof on addr
// until Close.
func StartDebugServer(addr string, o *Observer) (*DebugServer, error) {
	return obs.StartDebugServer(addr, o)
}

// NewAnalyzer returns a deadlock analyzer for a schema, configured by
// functional options.
func NewAnalyzer(s *Schema, opts ...AnalyzerOption) *Analyzer {
	return core.NewAnalyzer(s, opts...)
}

// AnalyzeContext runs WeSEER's three-phase deadlock diagnosis over the
// traces, honoring ctx for cancellation. Equivalent to
// NewAnalyzer(s, opts...).AnalyzeContext(ctx, traces).
func AnalyzeContext(ctx context.Context, s *Schema, traces []*Trace, opts ...AnalyzerOption) (*AnalysisResult, error) {
	return core.NewAnalyzer(s, opts...).AnalyzeContext(ctx, traces)
}
