package solver

import (
	"fmt"
	"sort"
)

// The string theory decides conjunctions of (dis)equalities between string
// variables and string constants — the full extent of the Fig. 7 StrExp
// grammar — via union-find with disequality edges, and produces a model by
// assigning witness strings to unconstrained classes.

// strTerm is a string-sorted term: a variable or a constant.
type strTerm struct {
	isConst bool
	s       string // var name or constant value
}

func (t strTerm) String() string {
	if t.isConst {
		return fmt.Sprintf("%q", t.s)
	}
	return t.s
}

// strConstraint is an equality (eq=true) or disequality between two terms.
type strConstraint struct {
	l, r strTerm
	eq   bool
}

type strUF struct {
	parent map[string]string
	// constOf maps a class representative to the constant value the class
	// is pinned to, if any.
	constOf map[string]string
}

func newStrUF() *strUF {
	return &strUF{parent: map[string]string{}, constOf: map[string]string{}}
}

func (u *strUF) find(x string) string {
	p, ok := u.parent[x]
	if !ok {
		u.parent[x] = x
		return x
	}
	if p == x {
		return x
	}
	root := u.find(p)
	u.parent[x] = root
	return root
}

// union merges the classes of x and y; it returns false on constant clash.
func (u *strUF) union(x, y string) bool {
	rx, ry := u.find(x), u.find(y)
	if rx == ry {
		return true
	}
	cx, okx := u.constOf[rx]
	cy, oky := u.constOf[ry]
	if okx && oky && cx != cy {
		return false
	}
	u.parent[ry] = rx
	if oky {
		u.constOf[rx] = cy
	}
	return true
}

// key returns the union-find node name for a term. Constants get a
// reserved prefix so they can never collide with variable names.
func (t strTerm) key() string {
	if t.isConst {
		return "\x00const:" + t.s
	}
	return t.s
}

// solveStrings decides a conjunction of string constraints. On success it
// returns an assignment for every variable mentioned.
func solveStrings(cons []strConstraint) (map[string]string, bool) {
	u := newStrUF()
	seen := map[string]bool{}
	note := func(t strTerm) {
		k := t.key()
		u.find(k)
		if t.isConst {
			u.constOf[u.find(k)] = t.s
		} else {
			seen[t.s] = true
		}
	}
	for _, c := range cons {
		note(c.l)
		note(c.r)
	}
	for _, c := range cons {
		if c.eq {
			if !u.union(c.l.key(), c.r.key()) {
				return nil, false
			}
		}
	}
	for _, c := range cons {
		if !c.eq && u.find(c.l.key()) == u.find(c.r.key()) {
			return nil, false
		}
	}
	// Model: classes pinned to a constant take it; the rest take distinct
	// fresh witnesses that differ from every constant in play.
	asn := map[string]string{}
	vars := make([]string, 0, len(seen))
	for v := range seen {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	constSet := map[string]bool{}
	for _, c := range u.constOf {
		constSet[c] = true
	}
	fresh := map[string]string{}
	n := 0
	for _, v := range vars {
		root := u.find(v)
		if c, ok := u.constOf[root]; ok {
			asn[v] = c
			continue
		}
		w, ok := fresh[root]
		for !ok {
			w = fmt.Sprintf("!w%d", n)
			n++
			ok = !constSet[w] // avoid colliding with a constant in play
		}
		fresh[root] = w
		asn[v] = w
	}
	return asn, true
}
