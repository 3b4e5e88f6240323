package smt

import "strconv"

// writer renders expressions: every String method, the shape key and
// TypedString append to a byte slice through it, in a single pass and
// without fmt. With sh set it renders each variable and array root as a
// first-occurrence placeholder; with typed set it keeps the names, quoted,
// and renders sorts as the shape key does, so the string is injective.
// (Canon's sort keys are rendered from its compiled form — canonizer.render
// prints the same syntax.) With rename set too, a typed name is whatever
// rename appends in place of its quoted form.
type writer struct {
	buf    []byte
	sh     *Shape
	typed  bool
	rename func([]byte, string) []byte
}

func exprString(e Expr) string {
	var w writer
	w.expr(e)
	return string(w.buf)
}

// TypedString renders e with every name quoted and followed by its sort and
// every Real constant marked: structurally different expressions render
// differently, which String (no sorts, bare names) does not promise.
func TypedString(e Expr) string {
	w := writer{typed: true}
	w.expr(e)
	return string(w.buf)
}

// AppendTypedString appends TypedString(e) to b, each name rendered by
// rename(b, name) instead of quoted: TypedString of e renamed, without the
// renamed copy.
func AppendTypedString(b []byte, e Expr, rename func([]byte, string) []byte) []byte {
	w := writer{buf: b, typed: true, rename: rename}
	w.expr(e)
	return w.buf
}

func (w *writer) str(s string) { w.buf = append(w.buf, s...) }

// name renders a variable name or array root ID of the given (key) sort.
func (w *writer) name(n string, s Sort) {
	switch {
	case w.sh != nil:
		// "$<index>:<sort>" — the sort keeps the key injective.
		w.buf = append(w.buf, '$')
		w.buf = strconv.AppendInt(w.buf, int64(w.sh.index(n)), 10)
		w.buf = append(w.buf, ':', '0'+byte(s))
	case w.typed:
		if w.rename != nil {
			w.buf = w.rename(w.buf, n)
		} else {
			w.buf = strconv.AppendQuote(w.buf, n)
		}
		w.buf = append(w.buf, ':', '0'+byte(s))
	default:
		w.str(n)
	}
}

func (w *writer) expr(e Expr) {
	switch t := e.(type) {
	case BoolConst:
		w.buf = strconv.AppendBool(w.buf, t.B)
	case IntConst:
		w.buf = strconv.AppendInt(w.buf, t.V, 10)
	case RealConst:
		if w.sh != nil || w.typed {
			w.buf = append(w.buf, 'r') // Real(3) is not Int(3)
		}
		w.str(t.V.RatString())
	case StrConst:
		w.buf = strconv.AppendQuote(w.buf, t.S)
	case Var:
		w.name(t.Name, t.S)
	case *Arith:
		if t.Op == OpNeg {
			w.str("(- ")
			w.expr(t.L)
		} else {
			w.binary(t.L, t.Op.String(), t.R)
		}
		w.buf = append(w.buf, ')')
	case *Cmp:
		w.binary(t.L, t.Op.String(), t.R)
		w.buf = append(w.buf, ')')
	case *NAry:
		if t.Conj {
			w.str("(and ")
		} else {
			w.str("(or ")
		}
		for i, x := range t.Xs {
			if i > 0 {
				w.buf = append(w.buf, ' ')
			}
			w.expr(x)
		}
		w.buf = append(w.buf, ')')
	case Not:
		w.str("(not ")
		w.expr(t.X)
		w.buf = append(w.buf, ')')
	case *Select:
		w.str("read(")
		w.array(t.Arr)
		w.str(", ")
		w.expr(t.Key)
		w.buf = append(w.buf, ')')
	default:
		w.str(e.String())
	}
}

// binary renders "(l op r" — the caller closes the parenthesis.
func (w *writer) binary(l Expr, op string, r Expr) {
	w.buf = append(w.buf, '(')
	w.expr(l)
	w.buf = append(w.buf, ' ')
	w.str(op)
	w.buf = append(w.buf, ' ')
	w.expr(r)
}

func (w *writer) array(a *Array) {
	if a.Parent == nil {
		w.name(a.ID, a.KeySort)
		return
	}
	w.str("write(")
	w.array(a.Parent)
	w.str(", ")
	w.expr(a.StoreKey)
	w.str(", ")
	w.buf = strconv.AppendBool(w.buf, a.StoreVal)
	w.buf = append(w.buf, ')')
}
