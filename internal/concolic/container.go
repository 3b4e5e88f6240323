package concolic

import (
	"slices"
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
// the symbolic array. It keeps one entry per key, holding the value and
// its keyOf symbol. Only a concolic engine's maps set symbols and name
// their array, once a symbolic key reaches them: no other mode reads them.
type SymMap struct {
	e         *Engine
	arr       *smt.Array
	hint      string
	seq, live int
	keySort   smt.Sort
	entries   []symEntry          // a removed key's entry stays, dead, for its next Put
	index     map[smt.Value]int32 // past eight entries, their positions plus one
}

type symEntry struct {
	key  smt.Value // mapKey of the key
	val  any
	sym  smt.Expr // keyOf[val]: the symbolic key val was stored under, if any
	dead bool
}

// NewSymMap returns an empty symbolic map with the given key sort; a
// concolic engine's array is named by the hint and a sequence number.
func (e *Engine) NewSymMap(hint string, keySort smt.Sort) *SymMap {
	e.symSeq++
	return &SymMap{e: e, hint: hint, seq: e.symSeq, keySort: keySort}
}

// Len returns the number of concrete entries.
func (m *SymMap) Len() int { return m.live }

func (m *SymMap) array() *smt.Array {
	if m.arr == nil {
		m.arr = smt.NewArray(m.hint+"@"+strconv.Itoa(m.seq), m.keySort)
	}
	return m.arr
}

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

// find returns the position of k's entry, or -1.
func (m *SymMap) find(k smt.Value) int {
	if m.index == nil {
		return slices.IndexFunc(m.entries, func(en symEntry) bool { return en.key == k })
	}
	return int(m.index[k]) - 1 // an absent key's zero gives -1
}

// add appends an entry for k and returns its position.
func (m *SymMap) add(k smt.Value) int {
	m.entries = append(m.entries, symEntry{key: k})
	if n := len(m.entries); n > 8 && m.index == nil {
		m.index = make(map[smt.Value]int32, 2*n)
		for i, en := range m.entries {
			m.index[en.key] = int32(i + 1)
		}
	} else if m.index != nil {
		m.index[k] = int32(n)
	}
	return len(m.entries) - 1
}

// get looks the key up (Alg. 1 get) and returns its mapKey, its entry's
// position (-1 for none) and whether it is present. On a hit the path
// condition records key = keyOf[retValue]; on a miss it records
// read(arr, key) = false.
func (m *SymMap) get(key Value) (smt.Value, int, bool) {
	k := mapKey(key)
	i := m.find(k)
	hit := i >= 0 && !m.entries[i].dead
	if m.e.concolic() && key.IsSymbolic() {
		// Container internals (hashing, bucket walks — Sec. IV-C) would add
		// many conditions; the Alg. 1 encoding reduces each access to one.
		m.e.AccountLibrary("HashMap.get", 10+m.Len()/4)
		switch {
		case !hit:
			m.e.appendPC(smt.Negate(smt.Read(m.array(), key.Sym())))
		case m.entries[i].sym != nil:
			m.e.appendPC(smt.Eq(key.Sym(), m.entries[i].sym))
		}
	}
	return k, i, hit
}

// Get looks the key up (Alg. 1 get).
func (m *SymMap) Get(key Value) (any, bool) {
	if _, i, hit := m.get(key); hit {
		return m.entries[i].val, true
	}
	return nil, false
}

// Put stores value under key (Alg. 1 put).
func (m *SymMap) Put(key Value, value any) {
	k, i, existed := m.get(key)
	if i < 0 {
		i = m.add(k)
	}
	if !existed {
		m.live++
	}
	en := &m.entries[i]
	en.val, en.sym, en.dead = value, nil, false
	if m.e.concolic() && key.IsSymbolic() {
		if !existed {
			m.arr = m.array().Store(key.Sym(), true)
		}
		en.sym = key.Sym()
	}
}

// Remove deletes key (Alg. 1 remove) and reports whether it was present.
func (m *SymMap) Remove(key Value) bool {
	k, i, existed := m.get(key)
	if !existed {
		return false
	}
	if m.e.concolic() && key.IsSymbolic() {
		m.arr = m.array().Store(key.Sym(), false)
	}
	m.entries[i] = symEntry{key: k, dead: true}
	m.live--
	return true
}
