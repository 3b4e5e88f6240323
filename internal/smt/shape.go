package smt

// Shape is a formula's plain alpha-normal form: variables and array
// roots numbered in first-occurrence order of one left-to-right walk,
// operands unsorted, constants untouched. Taking it costs one pass and,
// with a reused Shape, no allocation, which makes its Key a cheap first
// memo level in front of Canon: formulas differing only in naming share
// it, so Canon runs once per shape instead of once per formula.
//
// That is sound because Canon is equivariant under renaming — every step
// depends on names only through their first-occurrence pattern — so for
// the renaming π taking f to its shape, Canon(π(f)).Expr == Canon(f).Expr
// and Canon(π(f)).Rename∘π == Canon(f).Rename. Shape.Canon therefore works on
// the symbol indices alone and Rebase composes π in.
// A Shape is not safe for concurrent use.
type Shape struct {
	e     Expr
	key   []byte
	idx   map[string]int
	names []string // names[i] is the i-th distinct name of e
	cz    canonizer
}

// Reset points s at e and computes its key, reusing s's storage.
func (s *Shape) Reset(e Expr) {
	if s.idx == nil {
		s.idx = map[string]int{}
	}
	clear(s.idx)
	s.e, s.names = e, s.names[:0]
	w := writer{buf: s.key[:0], sh: s}
	w.expr(e)
	s.key = w.buf
}

func (s *Shape) index(n string) int {
	i, ok := s.idx[n]
	if !ok {
		i = len(s.names)
		s.idx[n] = i
		s.names = append(s.names, n)
	}
	return i
}

// Key identifies the shape: two formulas have equal keys exactly when
// one is a renaming of the other. It is valid until the next Reset.
func (s *Shape) Key() []byte { return s.key }
