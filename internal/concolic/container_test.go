package concolic

import (
	"math/big"
	"math/rand"
	"strconv"
	"testing"

	"weseer/internal/smt"
)

// mapOracle is the SymMap the one-entry-per-key map replaced: a Go map of
// the concrete entries and a second one for Alg. 1's keyOf, keyed by value
// identity. It is the oracle TestSymMapMatchesOracle holds SymMap to.
type mapOracle struct {
	e     *Engine
	arr   *smt.Array
	data  map[smt.Value]any
	keyOf map[any]smt.Expr
}

func newMapOracle(e *Engine, hint string, keySort smt.Sort) *mapOracle {
	e.symSeq++
	m := &mapOracle{e: e, data: map[smt.Value]any{}}
	if e.mode == ModeConcolic {
		m.arr = smt.NewArray(hint+"@"+strconv.Itoa(e.symSeq), keySort)
		m.keyOf = map[any]smt.Expr{}
	}
	return m
}

func (m *mapOracle) Len() int { return len(m.data) }

func (m *mapOracle) Get(key Value) (any, bool) {
	val, ok := m.data[mapKey(key)]
	if !m.e.concolic() || !key.IsSymbolic() {
		return val, ok
	}
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

func (m *mapOracle) Put(key Value, value any) {
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

func (m *mapOracle) Remove(key Value) bool {
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

// symbolicState reports whether m holds any symbolic state: a named array
// or a keyOf symbol.
func symbolicState(m *SymMap) bool {
	if m.arr != nil {
		return true
	}
	for _, en := range m.entries {
		if en.sym != nil {
			return true
		}
	}
	return false
}

// TestSymMapMatchesOracle drives SymMap and the two-map oracle through the
// same random Put/Get/Remove sequences, in ModeOff and ModeConcolic, over
// Int, Real and String keys that collide across sorts (5, 5/1, "5") and
// reals past int64 (2^70), concrete and symbolic. Every stored value is a
// new object, as every caller's is. Both must agree on every hit, value
// and Len, on the rendered path conditions and on the symbolic array. A
// sequence of a few hundred distinct keys takes SymMap past its linear
// search onto its index, which must then locate every entry.
func TestSymMapMatchesOracle(t *testing.T) {
	huge := new(big.Int).Lsh(big.NewInt(1), 70)
	sorts := []smt.Sort{smt.SortInt, smt.SortReal, smt.SortString}
	// keyOf draws a key, of the map's sort two times in three: 5, 5/1, 10/2,
	// 5/2, 2^70+5 or "5".
	keyOf := func(r *rand.Rand, sort smt.Sort, spread int) Value {
		if r.Intn(3) == 0 {
			sort = sorts[r.Intn(3)]
		}
		n := int64(r.Intn(spread))
		switch {
		case sort == smt.SortString:
			return Str(strconv.FormatInt(n, 10))
		case sort == smt.SortInt:
			return Int(n)
		}
		switch d := int64(1 + r.Intn(3)); r.Intn(3) {
		case 0:
			return Real(big.NewRat(n*d, d))
		case 1:
			return Real(big.NewRat(n, 2))
		}
		return Real(new(big.Rat).SetInt(new(big.Int).Add(huge, big.NewInt(n))))
	}
	for _, mode := range []Mode{ModeOff, ModeConcolic} {
		for seed := int64(1); seed <= 40; seed++ {
			r := rand.New(rand.NewSource(seed))
			spread := []int{6, 40, 400}[seed%3]
			got, want := New(mode), New(mode)
			got.StartConcolic("t")
			want.StartConcolic("t")
			sort := sorts[r.Intn(3)]
			m, o := got.NewSymMap("cache", sort), newMapOracle(want, "cache", sort)
			for op := 0; op < 600; op++ {
				key := keyOf(r, sort, spread)
				gk, wk := key, key
				if key.Sort() == sort && r.Intn(2) == 0 {
					name := "k" + strconv.Itoa(op)
					gk, wk = got.MakeSymbolic(name, key), want.MakeSymbolic(name, key)
				}
				switch r.Intn(3) {
				case 0:
					v := new(int)
					m.Put(gk, v)
					o.Put(wk, v)
				case 1:
					gv, gok := m.Get(gk)
					wv, wok := o.Get(wk)
					if gok != wok || gv != wv {
						t.Fatalf("%s seed %d op %d: Get(%s) = %v %v, oracle %v %v", mode, seed, op, key, gv, gok, wv, wok)
					}
				case 2:
					if g, w := m.Remove(gk), o.Remove(wk); g != w {
						t.Fatalf("%s seed %d op %d: Remove(%s) = %v, oracle %v", mode, seed, op, key, g, w)
					}
				}
				if m.Len() != o.Len() {
					t.Fatalf("%s seed %d op %d: Len = %d, oracle %d", mode, seed, op, m.Len(), o.Len())
				}
			}
			if g, w := renderPCs(got), renderPCs(want); g != w {
				t.Fatalf("%s seed %d: path conditions differ:\n%s\noracle:\n%s", mode, seed, g, w)
			}
			if (m.index != nil) != (len(m.entries) > 8) {
				t.Fatalf("%s seed %d: %d entries, index built = %v", mode, seed, len(m.entries), m.index != nil)
			}
			for i, en := range m.entries {
				if m.index != nil && m.index[en.key] != int32(i+1) {
					t.Fatalf("%s seed %d: entry %d indexed at %d", mode, seed, i, m.index[en.key]-1)
				}
			}
			switch {
			case mode == ModeOff && symbolicState(m):
				t.Fatalf("seed %d: ModeOff built symbolic state", seed)
			case m.arr == nil && o.arr != nil && o.arr.Parent != nil:
				t.Fatalf("seed %d: no array, oracle's is %s", seed, o.arr)
			case m.arr != nil && m.arr.String() != o.arr.String():
				t.Fatalf("seed %d: array %s, oracle's %s", seed, m.arr, o.arr)
			}
		}
	}
}

func renderPCs(e *Engine) string {
	if e.Trace() == nil {
		return ""
	}
	s := ""
	for _, pc := range e.Trace().PathConds {
		s += strconv.Itoa(pc.AfterStmt) + " " + pc.Cond.String() + "\n"
	}
	return s + strconv.Itoa(e.Trace().Stats.PrunedConds)
}
