package smt

import "strconv"

// writer is the package's one renderer: every String method, Canon's
// sort keys and the shape key append to a byte slice through it, in a
// single pass and without fmt. With m set it renders m.apply(e) —
// constants remapped per atom, names renamed — while walking e itself,
// so a sort key costs no tree copy; with sh set it renders each variable
// and array root as a first-occurrence placeholder; with typed set it keeps
// the names, quoted, and renders sorts as the shape key does, so the
// string is injective.
type writer struct {
	buf   []byte
	m     *canonMaps
	sh    *Shape
	typed bool
}

func exprString(e Expr) string {
	var w writer
	w.expr(e, "", 0)
	return string(w.buf)
}

// TypedString renders e with every name quoted and followed by its sort and
// every Real constant marked: structurally different expressions render
// differently, which String (no sorts, bare names) does not promise.
func TypedString(e Expr) string {
	w := writer{typed: true}
	w.expr(e, "", 0)
	return string(w.buf)
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
		w.buf = strconv.AppendQuote(w.buf, n)
		w.buf = append(w.buf, ':', '0'+byte(s))
	case w.m != nil:
		w.str(w.m.name(n))
	default:
		w.str(n)
	}
}

// expr renders e. tag and d are the enclosing atom's constant map and
// shift (see canonMaps.atomCtx); d moves only an IntConst that is itself
// an atom side, so recursion into Arith drops it.
func (w *writer) expr(e Expr, tag string, d int64) {
	switch t := e.(type) {
	case BoolConst:
		w.buf = strconv.AppendBool(w.buf, t.B)
	case IntConst:
		v := t.V - d
		if w.m != nil {
			if c, ok := w.m.ints[tag][t.V]; ok {
				v = c
			}
		}
		w.buf = strconv.AppendInt(w.buf, v, 10)
	case RealConst:
		if w.sh != nil || w.typed {
			w.buf = append(w.buf, 'r') // Real(3) is not Int(3)
		}
		w.str(t.V.RatString())
	case StrConst:
		s := t.S
		if w.m != nil {
			if c, ok := w.m.strs[tag][s]; ok {
				s = c
			}
		}
		w.buf = strconv.AppendQuote(w.buf, s)
	case Var:
		w.name(t.Name, t.S)
	case *Arith:
		if t.Op == OpNeg {
			w.str("(- ")
			w.expr(t.L, tag, 0)
		} else {
			w.binary(t.L, t.Op.String(), t.R, tag, 0)
		}
		w.buf = append(w.buf, ')')
	case *Cmp:
		if w.m != nil && t.L.Sort() != SortBool {
			tag, d = w.m.atomCtx(t)
		}
		w.binary(t.L, t.Op.String(), t.R, tag, d)
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
			w.expr(x, tag, 0)
		}
		w.buf = append(w.buf, ')')
	case Not:
		w.str("(not ")
		w.expr(t.X, tag, 0)
		w.buf = append(w.buf, ')')
	case *Select:
		if w.m != nil {
			tag, d = w.m.atomCtx(t)
		}
		w.str("read(")
		w.array(t.Arr, tag, d)
		w.str(", ")
		w.expr(t.Key, tag, d)
		w.buf = append(w.buf, ')')
	default:
		w.str(e.String())
	}
}

// binary renders "(l op r" — the caller closes the parenthesis.
func (w *writer) binary(l Expr, op string, r Expr, tag string, d int64) {
	w.buf = append(w.buf, '(')
	w.expr(l, tag, d)
	w.buf = append(w.buf, ' ')
	w.str(op)
	w.buf = append(w.buf, ' ')
	w.expr(r, tag, d)
}

func (w *writer) array(a *Array, tag string, d int64) {
	if a.Parent == nil {
		w.name(a.ID, a.KeySort)
		return
	}
	w.str("write(")
	w.array(a.Parent, tag, d)
	w.str(", ")
	w.expr(a.StoreKey, tag, d)
	w.str(", ")
	w.buf = strconv.AppendBool(w.buf, a.StoreVal)
	w.buf = append(w.buf, ')')
}
