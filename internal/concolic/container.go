package concolic

import (
	"strconv"

	"weseer/internal/smt"
)

// Symbolic containers implement Alg. 1 of the paper. Containers with
// symbolic keys are not modeled value-by-value (web applications store
// complex objects whose every field would need encoding); instead, the
// one-to-one key↔value mapping is exploited: a Z3-style Boolean array
// records key existence, and the concrete keyOf table recovers the key a
// value was stored under.

// SymMap is a map with a symbolic-existence encoding. Concrete lookups
// use the key's concrete value; path conditions about key existence use
// the symbolic array. Only a concolic engine's maps carry the array and
// keyOf: no other mode ever reads them.
type SymMap struct {
	e   *Engine
	arr *smt.Array
	// data holds the concrete map, keyed by mapKey(key).
	data map[smt.Value]any
	// keyOf maps a stored value to the symbolic key it was stored under
	// (Alg. 1's keyOf), keyed by value identity.
	keyOf map[any]smt.Expr
}

// NewSymMap returns an empty symbolic map with the given key sort; a
// concolic engine's array is named by the hint and a sequence number.
func (e *Engine) NewSymMap(hint string, keySort smt.Sort) *SymMap {
	e.symSeq++
	m := &SymMap{e: e, data: map[smt.Value]any{}}
	if e.mode == ModeConcolic {
		m.arr = smt.NewArray(hint+"@"+strconv.Itoa(e.symSeq), keySort)
		m.keyOf = map[any]smt.Expr{}
	}
	return m
}

// Len returns the number of concrete entries.
func (m *SymMap) Len() int { return len(m.data) }

// mapKey is a key's concrete value in comparable form: numerics of equal
// value are one key whatever their sort (a Real that is no int64 by its
// exact rendering), and strings never meet numbers.
func mapKey(key Value) smt.Value {
	c := key.C
	switch {
	case c.S != smt.SortReal:
		return c
	case c.R.IsInt() && c.R.Num().IsInt64():
		return smt.IntValue(c.R.Num().Int64())
	}
	return smt.Value{S: smt.SortReal, Str: c.R.RatString()}
}

// Get looks the key up (Alg. 1 get): on a hit the path condition records
// key = keyOf[retValue]; on a miss it records read(arr, key) = false.
func (m *SymMap) Get(key Value) (any, bool) {
	val, ok := m.data[mapKey(key)]
	if !m.e.concolic() || !key.IsSymbolic() {
		return val, ok
	}
	// Container internals (hashing, bucket walks — Sec. IV-C) would add
	// many conditions; the Alg. 1 encoding reduces each access to one.
	m.e.AccountLibrary("HashMap.get", 10+m.Len()/4)
	if ok {
		if prior, has := m.keyOf[val]; has {
			m.e.appendPC(smt.Eq(key.Sym(), prior))
		}
		return val, true
	}
	m.e.appendPC(smt.Negate(smt.Read(m.arr, key.Sym())))
	return nil, false
}

// Put stores value under key (Alg. 1 put).
func (m *SymMap) Put(key Value, value any) {
	old, existed := m.Get(key)
	if m.e.concolic() && key.IsSymbolic() {
		if existed {
			delete(m.keyOf, old)
		} else {
			m.arr = m.arr.Store(key.Sym(), true)
		}
		m.keyOf[value] = key.Sym()
	}
	m.data[mapKey(key)] = value
}

// Remove deletes key (Alg. 1 remove) and reports whether it was present.
func (m *SymMap) Remove(key Value) bool {
	old, existed := m.Get(key)
	if !existed {
		return false
	}
	if m.e.concolic() && key.IsSymbolic() {
		m.arr = m.arr.Store(key.Sym(), false)
		delete(m.keyOf, old)
	}
	delete(m.data, mapKey(key))
	return true
}
