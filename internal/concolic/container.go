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
// the symbolic array.
type SymMap struct {
	e   *Engine
	id  string
	arr *smt.Array
	// data holds the concrete map, keyed by the concrete key's rendering.
	data map[string]mapEntry
	// keyOf maps a stored value to the symbolic key it was stored under
	// (Alg. 1's keyOf), keyed by value identity.
	keyOf map[any]smt.Expr
}

type mapEntry struct {
	key Value
	val any
}

// NewSymMap returns an empty symbolic map with the given key sort.
func (e *Engine) NewSymMap(hint string, keySort smt.Sort) *SymMap {
	e.symSeq++
	id := hint + "@" + strconv.Itoa(e.symSeq)
	return &SymMap{
		e:     e,
		id:    id,
		arr:   smt.NewArray(id, keySort),
		data:  map[string]mapEntry{},
		keyOf: map[any]smt.Expr{},
	}
}

// Len returns the number of concrete entries.
func (m *SymMap) Len() int { return len(m.data) }

func (m *SymMap) concKey(key Value) string { return key.C.String() }

// Get looks the key up (Alg. 1 get): on a hit the path condition records
// key = keyOf[retValue]; on a miss it records read(arr, key) = false.
func (m *SymMap) Get(key Value) (any, bool) {
	ent, ok := m.data[m.concKey(key)]
	if !m.e.concolic() || !key.IsSymbolic() {
		if ok {
			return ent.val, true
		}
		return nil, false
	}
	// Container internals (hashing, bucket walks — Sec. IV-C) would add
	// many conditions; the Alg. 1 encoding reduces each access to one.
	m.e.AccountLibrary("HashMap.get", 10+m.Len()/4)
	if ok {
		if prior, has := m.keyOf[ent.val]; has {
			m.e.appendPC(smt.Eq(key.Sym(), prior))
		}
		return ent.val, true
	}
	m.e.appendPC(smt.Negate(smt.Read(m.arr, key.Sym())))
	return nil, false
}

// Put stores value under key (Alg. 1 put).
func (m *SymMap) Put(key Value, value any) {
	_, existed := m.Get(key)
	if m.e.concolic() && key.IsSymbolic() {
		if existed {
			old := m.data[m.concKey(key)].val
			delete(m.keyOf, old)
		} else {
			m.arr = m.arr.Store(key.Sym(), true)
		}
		m.keyOf[value] = key.Sym()
	}
	m.data[m.concKey(key)] = mapEntry{key: key, val: value}
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
	delete(m.data, m.concKey(key))
	return true
}

// Each visits entries in unspecified order (concrete iteration only).
func (m *SymMap) Each(fn func(key Value, val any) bool) {
	for _, ent := range m.data {
		if !fn(ent.key, ent.val) {
			return
		}
	}
}

// SymSet is a set with the Alg. 1 encoding: keys are their own values.
type SymSet struct {
	m *SymMap
}

// NewSymSet returns an empty symbolic set.
func (e *Engine) NewSymSet(hint string, keySort smt.Sort) *SymSet {
	return &SymSet{m: e.NewSymMap(hint, keySort)}
}

// Contains tests membership, recording the existence path condition.
func (s *SymSet) Contains(key Value) bool {
	_, ok := s.m.Get(key)
	return ok
}

// Add inserts the key.
func (s *SymSet) Add(key Value) { s.m.Put(key, key.C.String()) }

// Remove deletes the key and reports whether it was present.
func (s *SymSet) Remove(key Value) bool { return s.m.Remove(key) }

// Len returns the number of members.
func (s *SymSet) Len() int { return s.m.Len() }
