package trace

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"weseer/internal/smt"
	"weseer/internal/sqlast"
)

// reader is the one trace decoder, behind Decode and UnmarshalJSON: one
// pass over the bytes, no reflection. It accepts what encoding/json
// accepts when it unmarshals into the wire structs of json.go — the same
// syntax and nesting limit, keys matched exactly and then case-folded,
// unknown keys skipped, null as "leave unset", integer ranges, invalid
// UTF-8 and lone surrogates read as U+FFFD — except that an object naming
// one field twice is an error, where encoding/json merges the values. It
// converts with json.go's validating decoders and adds one rule: a result
// row has one cell per column.
//
// Within one call it shares what repeats: one string per distinct text,
// one sqlast.Stmt per SQL text and one slice per plan text (shared, as the
// collector shares them), and one decode per call-stack text, copied so
// that every CodeLoc owns its frames. Nothing outlives the call.
type reader struct {
	data       []byte
	pos, depth int
	err        error
	buf        []byte // the last string that needed unescaping

	strs  map[string]string
	sqls  map[string]sqlast.Stmt
	locs  map[string][]Frame
	plans map[string][]PlanStep

	// Chunks the statements, their lists and rows are carved from rather
	// than allocated one by one, and the wire nodes of the expression
	// being read.
	stmts  []Stmt
	lists  []*Stmt
	params []Param
	frames []Frame
	vars   []smt.Var
	nodes  []exprJSON
}

const maxDepth = 10000 // encoding/json's limit on nested arrays and objects

var errRepeatedKey = errors.New("repeated key")

// UnmarshalJSON implements json.Unmarshaler; null is the zero Trace.
func (tr *Trace) UnmarshalJSON(data []byte) error {
	r := newReader(data)
	*tr = Trace{}
	r.trace(tr)
	return r.end()
}

// Decode reads a trace batch, the JSON array `weseer collect -o` writes:
// what json.Unmarshal into []*Trace returns, except that a null trace is
// an error.
func Decode(data []byte) ([]*Trace, error) {
	r := newReader(data)
	var out []*Trace
	if !r.null() {
		out = []*Trace{}
		r.array(func() {
			if r.null() {
				r.fail("trace %d is null", len(out))
			}
			out = append(out, new(Trace))
			r.trace(out[len(out)-1])
		})
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return out, nil
}

func newReader(data []byte) *reader {
	return &reader{data: data, strs: map[string]string{}, sqls: map[string]sqlast.Stmt{},
		locs: map[string][]Frame{}, plans: map[string][]PlanStep{}}
}

// ---------------------------------------------------------------------------
// Traces

func (r *reader) trace(tr *Trace) {
	s := &tr.Stats
	r.object("api", &tr.API,
		"inputs", func() { r.array(func() { tr.Inputs = append(tr.Inputs, r.input()) }) },
		"txns", func() { r.array(func() { tr.Txns = append(tr.Txns, r.txn()) }) },
		"path_conds", func() { r.array(func() { tr.PathConds = append(tr.PathConds, r.pathCond()) }) },
		"stats", func() {
			r.object("path_conds", &s.PathConds, "pruned_conds", &s.PrunedConds, "statements", &s.Statements)
		})
}

func (r *reader) input() Input {
	var j inputJSON
	r.object("name", &j.Name, "sort", &j.Sort, "concrete", &j.Concrete)
	in, err := decodeInput(j)
	r.check(err)
	return in
}

func (r *reader) pathCond() (pc PathCond) {
	r.object("after", &pc.AfterStmt, "cond", func() { pc.Cond = r.expr() })
	if pc.Cond == nil {
		r.check(errMissingOperand)
	} else {
		r.check(checkSort(pc.Cond, "path condition", smt.SortBool))
	}
	return pc
}

func (r *reader) txn() *Txn {
	txn := &Txn{}
	r.object("id", &txn.ID, "committed", &txn.Committed, "stmts", func() {
		r.array(func() { r.lists = append(r.lists, r.stmt()) })
		txn.Stmts = carve(&r.lists)
	})
	return txn
}

func (r *reader) stmt() *Stmt {
	st := alloc(&r.stmts)
	r.object("seq", &st.Seq, "sql", &st.SQL,
		"params", func() {
			r.array(func() { r.params = append(r.params, r.param()) })
			st.Params = carve(&r.params)
		},
		"res", func() { st.Res = r.result() },
		"plan", func() { st.Plan = memo(r, r.plans, r.plan) },
		"trigger", func() { st.Trigger = r.codeLoc() },
		"sent", func() { st.Sent = r.codeLoc() })
	if st.Parsed = r.sqls[st.SQL]; st.Parsed == nil && r.err == nil {
		parsed, err := sqlast.Parse(st.SQL)
		if err != nil {
			r.check(fmt.Errorf("trace: re-parsing %q: %w", st.SQL, err))
		}
		st.Parsed, r.sqls[st.SQL] = parsed, parsed
	}
	return st
}

func (r *reader) param() (p Param) {
	var d datumJSON
	r.object("sym", func() { p.Sym = r.expr() }, "concrete", func() { d = r.datum() }) // no sym: concrete only
	var err error
	p.Concrete, err = decodeDatum(d)
	r.check(err)
	return p
}

func (r *reader) datum() (j datumJSON) {
	r.object("null", &j.Null, "kind", &j.Kind, "v", &j.V)
	return j
}

func (r *reader) result() *Result {
	if r.null() {
		return nil
	}
	res := &Result{}
	r.object("cols", func() {
		if !r.null() {
			res.Cols = []string{}
			r.array(func() { res.Cols = append(res.Cols, r.string()) })
		}
	}, "sym", func() {
		r.array(func() {
			r.array(func() { r.vars = append(r.vars, r.alias()) })
			res.Sym = append(res.Sym, carve(&r.vars))
		})
	}, "empty", &res.Empty)
	for _, row := range res.Sym {
		if len(row) != len(res.Cols) {
			r.check(fmt.Errorf("trace: result sym row has %d cells for %d columns", len(row), len(res.Cols)))
		}
	}
	return res
}

// alias reads a result cell, which must be a variable.
func (r *reader) alias() smt.Var {
	e := r.expr()
	v, ok := e.(smt.Var)
	if !ok {
		r.check(fmt.Errorf("trace: result alias is not a variable: %v", e))
	}
	return v
}

func (r *reader) plan() []PlanStep {
	if r.null() {
		return nil
	}
	plan := []PlanStep{}
	r.array(func() {
		var p PlanStep
		r.object("alias", &p.Alias, "table", &p.Table, "index", &p.Index)
		plan = append(plan, p)
	})
	return plan
}

// codeLoc reads a call stack into frames of its own.
func (r *reader) codeLoc() CodeLoc {
	frames := memo(r, r.locs, func() (frames []Frame) {
		r.object("frames", func() {
			if !r.null() {
				frames = []Frame{}
				r.array(func() {
					var f Frame
					r.object("func", &f.Func, "file", &f.File, "line", &f.Line)
					frames = append(frames, f)
				})
			}
		})
		return frames
	})
	if len(frames) > 0 {
		r.frames = append(r.frames, frames...)
		frames = carve(&r.frames)
	}
	return CodeLoc{Frames: frames}
}

// memo returns what decode reads from the next value, decoding each
// distinct text once: a text met before is skipped and looked up.
func memo[T any](r *reader, m map[string]T, decode func() T) T {
	r.peek()
	start := r.pos
	r.skip()
	v, ok := m[string(r.data[start:r.pos])]
	if ok || r.err != nil {
		return v
	}
	end := r.pos
	r.pos = start
	v = decode()
	m[string(r.data[start:end])] = v
	return v
}

// carve returns what was appended to the empty *slab as a slice of its
// own, nil if nothing was, and empties *slab again: the next list goes
// after it in the chunk, or into a fresh chunk when this one is nearly
// full. Chunks grow with the batch, to 1024 elements.
func carve[T any](slab *[]T) []T {
	s := *slab
	if len(s) == 0 {
		return nil
	}
	if *slab = s[len(s):]; cap(s)-len(s) < 16 {
		*slab = make([]T, 0, min(1024, max(64, 2*cap(s))))
	}
	return s[:len(s):len(s)]
}

// alloc returns a zeroed element of *slab, taking a fresh chunk when it is
// full.
func alloc[T any](slab *[]T) *T {
	if len(*slab) == cap(*slab) {
		*slab = make([]T, 0, min(1024, max(16, 2*cap(*slab))))
	}
	*slab = (*slab)[:len(*slab)+1]
	p := &(*slab)[len(*slab)-1]
	var zero T
	*p = zero
	return p
}

// expr reads an expression; null is nil. Its wire nodes are garbage once
// it is converted.
func (r *reader) expr() smt.Expr {
	defer func() { r.nodes = r.nodes[:0] }()
	j := r.node()
	if j == nil || r.err != nil {
		return nil
	}
	e, err := decodeExpr(j)
	r.check(err)
	return e
}

func (r *reader) node() *exprJSON {
	if r.null() {
		return nil
	}
	j := alloc(&r.nodes)
	r.object("k", &j.K, "v", &j.V, "b", &j.B, "name", &j.Name, "sort", &j.Sort, "op", &j.Op,
		"l", func() { j.L = r.node() }, "r", func() { j.R = r.node() },
		"xs", func() { r.array(func() { j.Xs = append(j.Xs, r.node()) }) },
		"conj", &j.Conj, "arr", func() { j.Arr = r.arr() }, "key", func() { j.Key = r.node() })
	return j
}

func (r *reader) arr() *arrJSON {
	if r.null() {
		return nil
	}
	a := &arrJSON{}
	r.object("id", &a.ID, "keysort", &a.KeySort, "stores", func() {
		r.array(func() {
			var s storeJSON
			r.object("key", func() { s.Key = r.node() }, "val", &s.Val)
			a.Stores = append(a.Stores, s)
		})
	})
	return a
}

// ---------------------------------------------------------------------------
// JSON

// object reads an object whose fields are given as name, destination
// pairs. A key names a field exactly or else case-folded, as encoding/json
// matches it, and at most once; other keys' values are skipped. A
// destination is a *string, *int, *uint8, *smt.Sort or *bool to decode
// into, or a func that reads the value. null is no object.
func (r *reader) object(fields ...any) {
	if r.null() {
		return
	}
	var seen uint64
	for more := r.open('{'); more; more = r.next('}') {
		if r.peek() != '"' {
			r.want("key")
			return
		}
		key, i := r.quoted(), -1
		if r.peek() != ':' {
			r.want("':'")
			return
		}
		r.pos++
		for n := 0; n < len(fields); n += 2 {
			if string(key) == fields[n].(string) {
				i = n
			}
		}
		for n := 0; i < 0 && n < len(fields); n += 2 {
			if strings.EqualFold(string(key), fields[n].(string)) {
				i = n
			}
		}
		switch {
		case i < 0:
			r.skip()
		case seen&(1<<i) != 0:
			r.check(fmt.Errorf("trace: offset %d: %w %q", r.pos, errRepeatedKey, string(key)))
		default:
			seen |= 1 << i
			switch p := fields[i+1].(type) {
			case *string:
				*p = r.string()
			case *int:
				*p = int(r.integer(false))
			case *uint8:
				*p = uint8(r.integer(true))
			case *smt.Sort:
				*p = smt.Sort(r.integer(true))
			case *bool:
				*p = r.bool()
			case func():
				p()
			}
		}
	}
}

// array reads an array, calling elem for each element; null is none.
func (r *reader) array(elem func()) {
	if !r.null() {
		for more := r.open('['); more; more = r.next(']') {
			elem()
		}
	}
}

// open consumes the bracket c opening an array or object and reports
// whether an element follows; next, after an element, consumes the comma
// before another or the closing bracket c.
func (r *reader) open(c byte) bool {
	if r.peek() != c {
		r.want(string(c))
		return false
	}
	r.pos++
	if r.depth++; r.depth > maxDepth {
		r.fail("offset %d: exceeded max depth", r.pos)
	}
	return !r.close(c + 2) // ']' or '}'
}

func (r *reader) next(c byte) bool {
	if r.peek() == ',' {
		r.pos++
		return true
	}
	if !r.close(c) {
		r.want("',' or " + string(c))
	}
	return false
}

func (r *reader) close(c byte) bool {
	if r.peek() != c {
		return false
	}
	r.pos++
	r.depth--
	return true
}

// skip reads a value and discards it.
func (r *reader) skip() {
	switch c := r.peek(); {
	case c == '{':
		r.object()
	case c == '[':
		r.array(r.skip)
	case c == '"':
		r.quoted()
	case c == '-' || '0' <= c && c <= '9':
		r.number()
	default:
		r.literal()
	}
}

// literal reads true, false or null.
func (r *reader) literal() string {
	for _, w := range [...]string{"true", "false", "null"} {
		if end := r.pos + len(w); end <= len(r.data) && string(r.data[r.pos:end]) == w {
			r.pos = end
			return w
		}
	}
	r.want("value")
	return ""
}

func (r *reader) null() bool { return r.peek() == 'n' && r.literal() == "null" }

// bool reads a Boolean; null leaves it false.
func (r *reader) bool() bool {
	if c := r.peek(); c != 't' && c != 'f' && c != 'n' {
		r.want("bool")
	}
	return r.literal() == "true"
}

// string reads a string, allocating each distinct text once; null leaves
// it "".
func (r *reader) string() string {
	if r.null() {
		return ""
	}
	if r.peek() != '"' {
		r.want("string")
		return ""
	}
	b := r.quoted()
	s, ok := r.strs[string(b)]
	if !ok {
		s = string(b)
		r.strs[s] = s
	}
	return s
}

// quoted reads a string and returns its contents: the input's bytes when
// they need no unescaping, else r.buf.
func (r *reader) quoted() []byte {
	r.pos++
	start := r.pos
	for ; r.pos < len(r.data); r.pos++ {
		switch c := r.data[r.pos]; {
		case c == '"':
			r.pos++
			return r.data[start : r.pos-1]
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return r.unquote(start)
		}
	}
	r.want(`'"'`)
	return nil
}

// unquote finishes quoted's string as encoding/json does: escapes
// decoded, invalid UTF-8 and unpaired surrogates replaced by U+FFFD.
func (r *reader) unquote(start int) []byte {
	b, d := append(r.buf[:0], r.data[start:r.pos]...), r.data
	for r.pos < len(d) {
		switch c := d[r.pos]; {
		case c == '"':
			r.pos++
			r.buf = b
			return b
		case c < ' ':
			r.want("string character")
		case c >= utf8.RuneSelf:
			c, n := utf8.DecodeRune(d[r.pos:])
			b = utf8.AppendRune(b, c)
			r.pos += n
		case c != '\\':
			b = append(b, c)
			r.pos++
		case hex4(d[r.pos:]) >= 0:
			c := hex4(d[r.pos:])
			if r.pos += 6; utf16.IsSurrogate(c) {
				if c = utf16.DecodeRune(c, hex4(d[r.pos:])); c != unicode.ReplacementChar {
					r.pos += 6
				}
			}
			b = utf8.AppendRune(b, c)
		default:
			k := -1
			if r.pos++; r.pos < len(d) {
				k = strings.IndexByte(`"\/bfnrt`, d[r.pos])
			}
			if k < 0 {
				r.want("escape character")
				break
			}
			b = append(b, "\"\\/\b\f\n\r\t"[k])
			r.pos++
		}
	}
	r.want(`'"'`)
	return nil
}

// hex4 decodes the \uXXXX escape s starts with, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	n, err := strconv.ParseUint(string(s[2:6]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(n)
}

// number reads a number, checking JSON's grammar.
func (r *reader) number() []byte {
	start := r.pos
	digits := func() bool {
		n := r.pos
		for r.pos < len(r.data) && '0' <= r.data[r.pos] && r.data[r.pos] <= '9' {
			r.pos++
		}
		return r.pos > n
	}
	eat := func(cs string) bool {
		if r.pos < len(r.data) && strings.IndexByte(cs, r.data[r.pos]) >= 0 {
			r.pos++
			return true
		}
		return false
	}
	eat("-")
	ok := eat("0") || digits()
	if ok && eat(".") {
		ok = digits()
	}
	if ok && eat("eE") {
		eat("+-")
		ok = digits()
	}
	if !ok {
		r.want("digit")
	}
	return r.data[start:r.pos]
}

// integer reads a number into an int field or, unsigned, a uint8 one, as
// encoding/json does through strconv; null leaves it 0.
func (r *reader) integer(unsigned bool) int64 {
	if r.null() {
		return 0
	}
	if c := r.peek(); c != '-' && (c < '0' || c > '9') {
		r.want("number")
	}
	lit := r.number()
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil || unsigned && (lit[0] == '-' || n > math.MaxUint8) {
		r.fail("offset %d: number %s does not fit its field", r.pos, lit)
	}
	return n
}

func (r *reader) fail(format string, args ...any) {
	r.check(fmt.Errorf("trace: "+format, args...))
}

// check records the first error and moves to the end of the input, where
// every read fails and every loop ends.
func (r *reader) check(err error) {
	if r.err == nil {
		r.err = err
	}
	if r.err != nil {
		r.pos = len(r.data)
	}
}

// want fails on the byte at the current position.
func (r *reader) want(what string) {
	if r.pos < len(r.data) {
		r.fail("offset %d: invalid character %q, want %s", r.pos, r.data[r.pos], what)
	} else {
		r.fail("unexpected end of JSON input, want %s", what)
	}
}

// end checks that only white space follows the value.
func (r *reader) end() error {
	if r.peek(); r.pos < len(r.data) {
		r.want("end of input")
	}
	return r.err
}

// peek skips white space and returns the next byte, 0 at the end.
func (r *reader) peek() byte {
	for ; r.pos < len(r.data); r.pos++ {
		if c := r.data[r.pos]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}
