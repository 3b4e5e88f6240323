// Package concolic implements WeSEER's concolic execution engine. The
// paper builds it into OpenJDK's HotSpot interpreter; here it is a
// library the model web applications are written against: values carry a
// concrete part (driving real execution) and a symbolic part (recording
// data flow), branches are taken concretely while their conditions
// accumulate as path conditions, and the database driver is intercepted
// to record transaction life cycles, statement templates, symbolic
// parameters, and symbolic result aliases (Sec. IV-A).
//
// The engine has three modes mirroring Table III's configurations:
// ModeOff (native execution, no tracking), ModeInterpret (driver
// interception and tracing without symbolic state), and ModeConcolic
// (full symbolic tracking). Pruning of driver/built-in/container path
// conditions (Sec. IV) is controlled independently to reproduce the
// 656K → 2.7K experiment.
package concolic

import (
	gocmp "cmp"
	"fmt"
	"math/big"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"weseer/internal/obs"
	"weseer/internal/smt"
	"weseer/internal/trace"
)

// Mode selects how much the engine tracks.
type Mode uint8

// Engine modes, mirroring Table III's JDK configurations.
const (
	// ModeOff runs the application natively with no tracking.
	ModeOff Mode = iota
	// ModeInterpret records transactions and statements but no symbolic
	// state (the paper's "Interpretive" JDK).
	ModeInterpret
	// ModeConcolic records everything including symbolic values and path
	// conditions (the paper's "Interpretive+Concolic").
	ModeConcolic
)

func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeInterpret:
		return "interpret"
	case ModeConcolic:
		return "concolic"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Engine is one concolic execution session. It is not safe for concurrent
// use: a unit test runs single-threaded, as the paper's collector does.
type Engine struct {
	mode Mode
	// prune enables the Sec. IV simplification: driver, built-in, and
	// container functions execute concretely, producing fresh symbolic
	// outputs instead of path conditions.
	prune bool
	// storedPCCap bounds how many unpruned library conditions are stored
	// (they are always counted); keeps no-pruning runs from exhausting
	// memory, as the 656K-condition Ship trace would.
	storedPCCap int

	active  bool
	tr      *trace.Trace
	stmtSeq int
	txnSeq  int
	symSeq  int

	rec records

	// obs, when non-nil, receives one "extract" span per
	// StartConcolic/EndConcolic pair; the extraction counters live on its
	// registry.
	obs                      *obs.Observer
	span                     obs.Span
	traces, stmts, pathConds *obs.Counter
}

// Option configures an Engine.
type Option func(*Engine)

// WithoutPruning disables the Sec. IV path-condition pruning; used by the
// pruning experiment.
func WithoutPruning() Option { return func(e *Engine) { e.prune = false } }

// WithObserver attaches an observability sink: each unit test's
// extraction (StartConcolic to EndConcolic) becomes an "extract" span,
// and collected traces feed the extraction counters. Observational
// only; nil disables it.
func WithObserver(o *obs.Observer) Option {
	return func(e *Engine) {
		e.obs = o
		if o == nil {
			return
		}
		e.traces = o.Metrics.Counter("weseer_extract_traces_total", "traces collected by concolic extraction")
		e.stmts = o.Metrics.Counter("weseer_extract_statements_total", "SQL statements recorded during extraction")
		e.pathConds = o.Metrics.Counter("weseer_extract_path_conds_total", "path conditions recorded during extraction")
	}
}

// New returns an engine in the given mode with pruning enabled.
func New(mode Mode, opts ...Option) *Engine {
	e := &Engine{mode: mode, prune: true, storedPCCap: 4096}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Mode returns the engine's mode.
func (e *Engine) Mode() Mode { return e.mode }

func (e *Engine) concolic() bool  { return e.mode == ModeConcolic && e.active }
func (e *Engine) recording() bool { return e.mode != ModeOff && e.active }

// StartConcolic begins trace collection for one API unit test.
func (e *Engine) StartConcolic(api string) {
	e.active = true
	e.tr = &e.rec.traces.carve(1)[0]
	e.tr.API, e.tr.Inputs, e.tr.Txns, e.tr.PathConds = api, e.rec.inputBuf, e.rec.txnBuf, e.rec.pcBuf
	e.stmtSeq = 0
	e.txnSeq = 0
	e.symSeq = 0
	if e.obs != nil {
		e.span = e.obs.StartSpan(0, "extract",
			obs.String("api", api), obs.String("mode", e.mode.String()))
	}
}

// EndConcolic stops collection and returns the trace (nil in ModeOff).
func (e *Engine) EndConcolic() *trace.Trace {
	e.active = false
	tr := e.tr
	e.tr = nil
	if tr != nil {
		tr.Inputs, e.rec.inputBuf = keep(&e.rec.inputs, tr.Inputs)
		tr.Txns, e.rec.txnBuf = keep(&e.rec.txnRefs, tr.Txns)
		tr.PathConds, e.rec.pcBuf = keep(&e.rec.pathConds, tr.PathConds)
	}
	if e.mode == ModeOff {
		tr = nil
	}
	if e.obs != nil {
		stmts, pcs := 0, 0
		if tr != nil {
			stmts, pcs = tr.Stats.Statements, tr.Stats.PathConds
		}
		e.span.End(obs.Int("statements", stmts), obs.Int("path_conds", pcs))
		e.span = obs.Span{}
		if tr != nil {
			e.traces.Inc()
			e.stmts.Add(int64(stmts))
			e.pathConds.Add(int64(pcs))
		}
	}
	return tr
}

// Trace returns the in-progress trace (nil outside a session or in
// ModeOff).
func (e *Engine) Trace() *trace.Trace {
	if e.mode == ModeOff {
		return nil
	}
	return e.tr
}

// freshVar mints an engine-unique symbolic variable.
func (e *Engine) freshVar(hint string, sort smt.Sort) smt.Var {
	e.symSeq++
	return smt.NewVar(fmt.Sprintf("%s#%d", hint, e.symSeq), sort)
}

// ---------------------------------------------------------------------------
// Values

// Value is a concolic value: a concrete part that drives execution and an
// optional symbolic part. A nil Sym means the value is untracked (pure
// concrete); constants fold in as literals when they meet tracked values.
type Value struct {
	Null bool
	C    smt.Value
	S    smt.Expr
}

// Int returns a concrete integer value.
func Int(v int64) Value { return Value{C: smt.IntValue(v)} }

// Str returns a concrete string value.
func Str(s string) Value { return Value{C: smt.StrValue(s)} }

// Real returns a concrete decimal value.
func Real(r *big.Rat) Value { return Value{C: smt.RealValue(r)} }

// Bool returns a concrete Boolean value.
func Bool(b bool) Value { return Value{C: smt.BoolValue(b)} }

// NullValue returns the NULL value of a sort.
func NullValue(sort smt.Sort) Value {
	return Value{Null: true, C: smt.Value{S: sort}}
}

// Sort returns the value's sort.
func (v Value) Sort() smt.Sort { return v.C.S }

// IsSymbolic reports whether the value carries symbolic state.
func (v Value) IsSymbolic() bool { return v.S != nil }

// Sym returns the symbolic expression, materializing a literal for
// untracked values.
func (v Value) Sym() smt.Expr {
	if v.S != nil {
		return v.S
	}
	switch v.C.S {
	case smt.SortBool:
		return smt.Bool(v.C.B)
	case smt.SortInt:
		return smt.Int(v.C.I)
	case smt.SortReal:
		return smt.RealFromRat(v.C.R)
	case smt.SortString:
		return smt.Str(v.C.Str)
	}
	panic("concolic: bad value sort")
}

func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	if v.S != nil {
		return fmt.Sprintf("%s{=%s}", v.S, v.C)
	}
	return v.C.String()
}

// MakeSymbolic marks v as a named symbolic input of the API under test
// and records it in the trace. In non-concolic modes it returns v
// unchanged.
func (e *Engine) MakeSymbolic(name string, v Value) Value {
	if !e.concolic() {
		return v
	}
	v.S = smt.NewVar(name, v.C.S)
	e.tr.Inputs = append(e.tr.Inputs, trace.Input{Name: name, Sort: v.C.S, Concrete: v.C})
	return v
}

// tracked reports whether an operation over these values should build a
// symbolic result.
func (e *Engine) tracked(vs ...Value) bool {
	if !e.concolic() {
		return false
	}
	for _, v := range vs {
		if v.S != nil {
			return true
		}
	}
	return false
}

// Add returns a+b, propagating symbolic state.
func (e *Engine) Add(a, b Value) Value { return e.arith(smt.OpAdd, a, b) }

// Sub returns a-b.
func (e *Engine) Sub(a, b Value) Value { return e.arith(smt.OpSub, a, b) }

// Mul returns a*b; at least one side must be a concrete constant for the
// result to stay in the linear fragment.
func (e *Engine) Mul(a, b Value) Value { return e.arith(smt.OpMul, a, b) }

func (e *Engine) arith(op smt.ArithOp, a, b Value) Value {
	if a.Null || b.Null {
		return NullValue(a.C.S)
	}
	if (a.C.S == smt.SortReal || b.C.S == smt.SortReal) && e.tracked(a, b) {
		// BigDecimal arithmetic internals (Sec. IV-B): modeled as solver
		// reals, their scale/rounding branches never become conditions.
		e.AccountLibrary("BigDecimal.arith", 24)
	}
	var out Value
	if a.C.S == smt.SortInt && b.C.S == smt.SortInt {
		// In machine words, which wrap as an int64 of the exact result would.
		out.C = smt.IntValue(a.C.I)
		switch op {
		case smt.OpAdd:
			out.C.I += b.C.I
		case smt.OpSub:
			out.C.I -= b.C.I
		case smt.OpMul:
			out.C.I *= b.C.I
		}
	} else {
		out.C = smt.Value{S: smt.SortReal, R: new(big.Rat)}
		switch ra, rb := ratOf(a.C), ratOf(b.C); op {
		case smt.OpAdd:
			out.C.R.Add(ra, rb)
		case smt.OpSub:
			out.C.R.Sub(ra, rb)
		case smt.OpMul:
			out.C.R.Mul(ra, rb)
		}
	}
	if e.tracked(a, b) {
		switch op {
		case smt.OpAdd:
			out.S = smt.Add(a.Sym(), b.Sym())
		case smt.OpSub:
			out.S = smt.Sub(a.Sym(), b.Sym())
		case smt.OpMul:
			out.S = smt.Mul(a.Sym(), b.Sym())
		}
	}
	return out
}

// Cmp returns the Boolean value of (a op b).
func (e *Engine) Cmp(op smt.CmpOp, a, b Value) Value {
	if a.Null || b.Null {
		// SQL-style: comparisons against NULL are not satisfied. The
		// application layer checks nullness explicitly via IsNull.
		return Bool(false)
	}
	var c bool
	if a.C.S == smt.SortString {
		// String.compare internals branch per character (Sec. IV-B);
		// modeling strings as solver-native avoids those conditions.
		if e.tracked(a, b) {
			e.AccountLibrary("String.compare", 2+len(a.C.Str)+len(b.C.Str))
		}
		switch op {
		case smt.EQ:
			c = a.C.Str == b.C.Str
		case smt.NE:
			c = a.C.Str != b.C.Str
		default:
			panic("concolic: strings support only = and !=")
		}
	} else {
		cmp := gocmp.Compare(a.C.I, b.C.I)
		if a.C.S == smt.SortReal || b.C.S == smt.SortReal {
			cmp = ratOf(a.C).Cmp(ratOf(b.C))
		}
		switch op {
		case smt.EQ:
			c = cmp == 0
		case smt.NE:
			c = cmp != 0
		case smt.LT:
			c = cmp < 0
		case smt.LE:
			c = cmp <= 0
		case smt.GT:
			c = cmp > 0
		case smt.GE:
			c = cmp >= 0
		}
	}
	out := Bool(c)
	if e.tracked(a, b) {
		out.S = smt.Compare(op, a.Sym(), b.Sym())
	}
	return out
}

// ratOf returns a numeric value as a big.Rat to read but not change: a
// Real's own.
func ratOf(c smt.Value) *big.Rat {
	if c.S == smt.SortReal {
		return c.R
	}
	return new(big.Rat).SetInt64(c.I)
}

// Eq returns a = b.
func (e *Engine) Eq(a, b Value) Value { return e.Cmp(smt.EQ, a, b) }

// Ne returns a != b.
func (e *Engine) Ne(a, b Value) Value { return e.Cmp(smt.NE, a, b) }

// Lt returns a < b.
func (e *Engine) Lt(a, b Value) Value { return e.Cmp(smt.LT, a, b) }

// Le returns a <= b.
func (e *Engine) Le(a, b Value) Value { return e.Cmp(smt.LE, a, b) }

// Gt returns a > b.
func (e *Engine) Gt(a, b Value) Value { return e.Cmp(smt.GT, a, b) }

// Ge returns a >= b.
func (e *Engine) Ge(a, b Value) Value { return e.Cmp(smt.GE, a, b) }

// And returns a && b over Boolean values.
func (e *Engine) And(a, b Value) Value {
	out := Bool(a.C.B && b.C.B)
	if e.tracked(a, b) {
		out.S = smt.And(a.Sym(), b.Sym())
	}
	return out
}

// Not returns !a.
func (e *Engine) Not(a Value) Value {
	out := Bool(!a.C.B)
	if e.tracked(a) {
		out.S = smt.Negate(a.Sym())
	}
	return out
}

// If takes the branch concretely and records the taken direction as a
// path condition: the core concolic-execution operation.
func (e *Engine) If(cond Value) bool {
	taken := cond.C.B
	if e.concolic() && cond.S != nil && !smt.IsConst(cond.S) {
		c := cond.S
		if !taken {
			c = smt.Negate(c)
		}
		e.appendPC(c)
	}
	return taken
}

func (e *Engine) appendPC(c smt.Expr) {
	e.tr.Stats.PathConds++
	if len(e.tr.PathConds) < e.storedPCCap*16 {
		e.tr.PathConds = append(e.tr.PathConds, trace.PathCond{AfterStmt: e.stmtSeq, Cond: c})
	}
}

// ---------------------------------------------------------------------------
// Ignored library functions (Sec. IV)

// AccountLibrary records that a modeled library function (String or
// BigDecimal built-ins per Sec. IV-B, container internals per Sec. IV-C,
// driver internals per Sec. IV-A) would have contributed `branches` path
// conditions under full concolic execution. With pruning the conditions
// are avoided (counted in PrunedConds); without it they are counted as
// real path conditions and stored up to a cap.
func (e *Engine) AccountLibrary(name string, branches int) {
	if !e.concolic() || branches <= 0 {
		return
	}
	if e.prune {
		e.tr.Stats.PrunedConds += branches
		return
	}
	e.tr.Stats.PathConds += branches
	for i := 0; i < branches && len(e.tr.PathConds) < e.storedPCCap; i++ {
		v := e.freshVar("libpc."+name, smt.SortInt)
		e.tr.PathConds = append(e.tr.PathConds, trace.PathCond{
			AfterStmt: e.stmtSeq,
			Cond:      smt.Ne(v, smt.Int(int64(i+1))),
		})
	}
}

// LibraryCall models invoking a library function (database driver
// internals, String/BigDecimal built-ins, container internals) whose body
// would contribute `branches` path conditions under full concolic
// execution. With pruning — the paper's simplification — the call
// executes concretely, contributes no conditions, and its output receives
// a fresh unconstrained symbolic variable. Without pruning the conditions
// are accounted (and stored up to a cap), reproducing the path-condition
// explosion of Sec. IV (656K for Broadleaf's Ship API).
func (e *Engine) LibraryCall(name string, branches int, out Value) Value {
	if !e.concolic() {
		return out
	}
	e.AccountLibrary(name, branches)
	out.S = e.freshVar("lib."+name, out.C.S)
	return out
}

// ---------------------------------------------------------------------------
// Stack capture

// stackDepth is how many logical frames a capture unwinds and symbolizes.
const stackDepth = 24

// keyDepth is how many physical frames a call-site key holds. A capture
// whose chain of callers is longer is keyed by its logical unwind instead.
// It exceeds stackDepth plus Here's largest skip (3), the
// physical frames runtime.Callers(skip+1, stackDepth) reaches when no
// elided wrapper frame sits among them.
const keyDepth = 32

// siteKey identifies a capture's stack. A frame-pointer walk fills pcs with
// the return address of every physical frame above Here, out to the
// goroutine's entry, and skip is Here's argument: the physical PCs fix
// every logical (inlined) frame and which wrappers an unwind elides, so
// equal keys unwind to equal PCs. A chain deeper than keyDepth, or a GOARCH
// without the walk, is keyed by runtime.Callers' own PCs, with skip -1.
type siteKey struct {
	pcs  [keyDepth]uintptr
	skip int
}

// site is one call-site table entry: the logical PCs its first capture
// unwound and the application frames symbolized from them.
type site struct {
	pcs    []uintptr
	frames []trace.Frame
}

// sites maps a capture's key to its call site. Unwinding with
// runtime.Callers costs microseconds and symbolizing (file/line lookup,
// string building) more again, while reading the frame-pointer chain
// costs a load per frame; so the unwind and the symbolization run once
// per key, and every later capture there is a walk and a lookup. The
// table is process-wide because call sites are a property of the binary,
// not of an engine or a run: it is bounded by the program's static call
// paths into the engine, whatever the input.
var sites = struct {
	sync.Mutex
	m                 map[siteKey]site
	captures, unwinds atomic.Int64
}{m: map[siteKey]site{}}

// StackWalks returns how many stacks Here has captured in this process.
func StackWalks() int64 { return sites.captures.Load() }

// StackUnwinds returns how many of those captures paid a runtime.Callers
// unwind: one per call-site key, plus every capture keyed by its unwind.
func StackUnwinds() int64 { return sites.unwinds.Load() }

// Here captures the current application stack, skipping `skip` frames of
// the caller's own machinery and filtering out engine/ORM internals so
// that reported trigger code points into application source. Every
// capture at one call site returns the same Frames slice, which callers
// must not modify. Here is never inlined: its key starts at its own
// return address.
//
//go:noinline
func Here(skip int) trace.CodeLoc {
	sites.captures.Add(1)
	k := siteKey{skip: skip}
	var pcs [stackDepth]uintptr
	n := 0
	if !framePCs(&k.pcs) {
		n = runtime.Callers(skip+1, pcs[:])
		sites.unwinds.Add(1)
		k = siteKey{skip: -1}
		copy(k.pcs[:], pcs[:n])
	}
	sites.Lock()
	s, ok := sites.m[k]
	if !ok {
		if k.skip >= 0 {
			n = runtime.Callers(skip+1, pcs[:])
			sites.unwinds.Add(1)
		}
		// The symbolizer retains its argument; handing it a copy keeps pcs
		// on the stack for the hits.
		s.pcs = append([]uintptr(nil), pcs[:n]...)
		s.frames = symbolize(s.pcs)
		sites.m[k] = s
	}
	sites.Unlock()
	return trace.CodeLoc{Frames: s.frames}
}

// modulePrefix is what the build put in front of a main-module file's
// module-relative path — the checkout directory, or the module path under
// -trimpath — read off this file's own recorded name.
var modulePrefix = func() string {
	_, file, _, _ := runtime.Caller(0)
	return strings.TrimSuffix(file, "internal/concolic/engine.go")
}()

// symbolize resolves raw PCs to the application frames among them,
// innermost first, main-module files named relative to the module root so
// that locations (and the fingerprints hashed from them) do not depend on
// where or how the binary was built. The result's capacity equals its
// length, so an append by a holder cannot write into the shared array.
func symbolize(pcs []uintptr) []trace.Frame {
	var out []trace.Frame
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		if keepFrame(f.Function, f.File) {
			out = append(out, trace.Frame{
				Func: shortFunc(f.Function),
				File: strings.TrimPrefix(f.File, modulePrefix),
				Line: f.Line,
			})
			if len(out) >= 6 {
				break
			}
		}
		if !more {
			break
		}
	}
	return out[:len(out):len(out)]
}

// keepFrame keeps application frames and drops engine/ORM internals and
// the runtime. Test files inside the filtered packages count as
// application code (unit tests are exactly what the collector runs).
func keepFrame(fn, file string) bool {
	if fn == "" || strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "testing.") {
		return false
	}
	if strings.HasSuffix(file, "_test.go") {
		return true
	}
	if strings.Contains(file, "internal/concolic/") || strings.Contains(file, "internal/orm/") {
		return false
	}
	return !strings.Contains(fn, "weseer/internal/concolic.") && !strings.Contains(fn, "weseer/internal/orm.")
}

func shortFunc(fn string) string {
	if i := strings.LastIndex(fn, "/"); i >= 0 {
		return fn[i+1:]
	}
	return fn
}
