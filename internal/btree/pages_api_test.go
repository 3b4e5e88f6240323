package btree

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"testing/quick"
)

// Example-based and testing/quick checks of the page tree's map contract:
// Put, Get, Delete, Len and the two scans, on one-field int keys (ik) and
// decimal values (iv), next to FuzzPages' random operation sequences.

// ik encodes i as a one-field int key, ordered by keyCmp as i is.
func ik(i int) string { return string(keyField(nil, false, int64(i), nil)) }

func iv(i int) []byte { return strconv.AppendInt(nil, int64(i), 10) }

// ikDecode returns the int that ik encoded.
func ikDecode(t testing.TB, k string) int {
	t.Helper()
	tag, v, rest := splitField(k)
	if tag != 'I' || rest != "" {
		t.Fatalf("key %q is not one int field", k)
	}
	return int(int64(binary.BigEndian.Uint64([]byte(v))))
}

// ascendInts returns the int keys Ascend visits from ik(from), or all of
// them with all set, stopping after the first key for which more is false.
func ascendInts(t testing.TB, p *Pages, all bool, from int, more func(k int) bool) []int {
	t.Helper()
	got := []int{}
	fn := func(k, _ string) bool {
		got = append(got, ikDecode(t, k))
		return more == nil || more(got[len(got)-1])
	}
	if all {
		p.AscendAll(fn)
	} else {
		p.Ascend(ik(from), fn)
	}
	return got
}

func checkShape(t testing.TB, p *Pages) {
	t.Helper()
	if _, err := p.check(); err != nil {
		t.Fatal(err)
	}
}

func TestEmpty(t *testing.T) {
	p := NewPages(keyCmp)
	if p.Len() != 0 {
		t.Errorf("Len = %d", p.Len())
	}
	if _, ok := p.Get(ik(1)); ok {
		t.Error("Get on empty")
	}
	if p.Delete(ik(1)) {
		t.Error("Delete on empty")
	}
	p.AscendAll(func(string, string) bool { t.Error("AscendAll visit on empty"); return true })
	p.Ascend("", func(string, string) bool { t.Error("Ascend visit on empty"); return true })
	checkShape(t, p)
}

func TestSetGetDelete(t *testing.T) {
	p := NewPages(keyCmp)
	const n = 1000
	for i := 0; i < n; i++ {
		if _, existed := p.Put(ik(i*2), iv(i)); existed {
			t.Fatalf("Put(%d) reported a replace", i*2)
		}
	}
	if p.Len() != n {
		t.Fatalf("Len = %d", p.Len())
	}
	checkShape(t, p)
	// A replace must not grow, and hands back the value it replaced.
	if old, existed := p.Put(ik(10), iv(999)); !existed || old != "5" {
		t.Errorf("Put(10) replace = %q %v", old, existed)
	}
	if p.Len() != n {
		t.Errorf("Len after replace = %d", p.Len())
	}
	if v, ok := p.Get(ik(10)); !ok || v != "999" {
		t.Errorf("Get(10) = %q %v", v, ok)
	}
	if _, ok := p.Get(ik(11)); ok {
		t.Error("Get(11) should miss")
	}
	for i := 0; i < n; i += 2 {
		if !p.Delete(ik(i * 2)) {
			t.Fatalf("Delete(%d) missed", i*2)
		}
	}
	if p.Len() != n/2 {
		t.Fatalf("Len after deletes = %d", p.Len())
	}
	checkShape(t, p)
	for i := 0; i < n; i++ {
		v, ok := p.Get(ik(i * 2))
		wantV := strconv.Itoa(i)
		if i == 5 {
			wantV = "999"
		}
		if want := i%2 == 1; ok != want || (ok && v != wantV) {
			t.Fatalf("Get(%d) = %q %v, want present %v", i*2, v, ok, want)
		}
	}
}

func TestAscendOrder(t *testing.T) {
	p := NewPages(keyCmp)
	perm := rand.New(rand.NewSource(1)).Perm(500)
	for _, k := range perm {
		p.Put(ik(k), iv(k))
	}
	checkShape(t, p)
	got := ascendInts(t, p, true, 0, nil)
	if len(got) != 500 {
		t.Fatalf("visited %d", len(got))
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("got[%d] = %d", i, got[i])
		}
	}
}

func TestAscendFrom(t *testing.T) {
	p := NewPages(keyCmp)
	for i := 0; i < 100; i += 2 { // evens 0..98
		p.Put(ik(i), iv(i))
	}
	got := ascendInts(t, p, false, 31, func(k int) bool { return k < 40 })
	if want := []int{32, 34, 36, 38, 40}; !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	// From an existing key: inclusive.
	got = ascendInts(t, p, false, 30, func(int) bool { return false })
	if !slices.Equal(got, []int{30}) {
		t.Fatalf("inclusive start: %v", got)
	}
	// From beyond the max: no visits.
	if got = ascendInts(t, p, false, 99, nil); len(got) != 0 {
		t.Fatalf("beyond max: %v", got)
	}
}

// TestMin: the first entry AscendAll visits is the least key with its
// value, and a false return stops the scan there.
func TestMin(t *testing.T) {
	p := NewPages(keyCmp)
	p.Put(ik(5), []byte("five"))
	p.Put(ik(3), []byte("three"))
	p.Put(ik(9), []byte("nine"))
	var keys, vals []string
	p.AscendAll(func(k, v string) bool {
		keys, vals = append(keys, k), append(vals, v)
		return false
	})
	if len(keys) != 1 || keys[0] != ik(3) || vals[0] != "three" {
		t.Errorf("first visit = %q %q", keys, vals)
	}
}

func TestStringKeys(t *testing.T) {
	p := NewPages(keyCmp)
	words := []string{"pear", "apple", "fig", "banana", "cherry"}
	for i, w := range words {
		p.Put(string(keyField(nil, false, 0, &w)), iv(i))
	}
	var got []string
	p.AscendAll(func(k, _ string) bool {
		tag, s, rest := splitField(k)
		if tag != 'S' || rest != "" {
			t.Fatalf("key %q is not one string field", k)
		}
		got = append(got, s)
		return true
	})
	if want := []string{"apple", "banana", "cherry", "fig", "pear"}; !slices.Equal(got, want) {
		t.Errorf("iteration %v, want %v", got, want)
	}
}

// TestRandomizedAgainstReference drives random operations against the
// page tree and a reference map, checking contents and iteration order.
func TestRandomizedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := NewPages(keyCmp)
	ref := map[int]string{}
	const keyspace = 400
	for op := 0; op < 20000; op++ {
		k := rng.Intn(keyspace)
		switch rng.Intn(3) {
		case 0: // put
			v := strconv.Itoa(rng.Int())
			rv, rok := ref[k]
			if old, existed := p.Put(ik(k), []byte(v)); existed != rok || old != rv {
				t.Fatalf("op %d: Put(%d) = (%q,%v), want (%q,%v)", op, k, old, existed, rv, rok)
			}
			ref[k] = v
		case 1: // get
			v, ok := p.Get(ik(k))
			rv, rok := ref[k]
			if ok != rok || v != rv {
				t.Fatalf("op %d: Get(%d) = (%q,%v), want (%q,%v)", op, k, v, ok, rv, rok)
			}
		case 2: // delete
			_, existed := ref[k]
			if p.Delete(ik(k)) != existed {
				t.Fatalf("op %d: Delete(%d) mismatch", op, k)
			}
			delete(ref, k)
		}
		if p.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, p.Len(), len(ref))
		}
		if op%1000 == 0 {
			checkShape(t, p)
		}
	}
	checkShape(t, p)
	// Full iteration must match the sorted reference.
	keys := make([]int, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	i := 0
	p.AscendAll(func(k, v string) bool {
		if i >= len(keys) || k != ik(keys[i]) || v != ref[keys[i]] {
			t.Fatalf("iter %d: (%q,%q), want key %d", i, k, v, keys[min(i, len(keys)-1)])
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("visited %d of %d", i, len(keys))
	}
	// Range iteration from random starting points.
	for trial := 0; trial < 50; trial++ {
		from := rng.Intn(keyspace)
		want := []int{}
		for _, k := range keys {
			if k >= from {
				want = append(want, k)
			}
		}
		if got := ascendInts(t, p, false, from, nil); !slices.Equal(got, want) {
			t.Fatalf("Ascend(%d) = %v, want %v", from, got, want)
		}
	}
}

func TestDescendingInsertAscendingDelete(t *testing.T) {
	p := NewPages(keyCmp)
	const n = 2000
	for i := n; i > 0; i-- {
		p.Put(ik(i), iv(i))
	}
	checkShape(t, p)
	for i := 1; i <= n; i++ {
		if v, ok := p.Get(ik(i)); !ok || v != strconv.Itoa(i) {
			t.Fatalf("Get(%d) = %q %v", i, v, ok)
		}
	}
	for i := 1; i <= n; i++ {
		if !p.Delete(ik(i)) {
			t.Fatalf("Delete(%d)", i)
		}
		if i%250 == 0 {
			checkShape(t, p)
		}
	}
	if p.Len() != 0 || p.root != nil {
		t.Errorf("tree not empty: len=%d", p.Len())
	}
}

// TestQuickSetGetRoundTrip: every inserted key is retrievable with its
// latest value, regardless of insertion order.
func TestQuickSetGetRoundTrip(t *testing.T) {
	f := func(keys []int16, values []int32) bool {
		p := NewPages(keyCmp)
		ref := map[int]string{}
		for i, k := range keys {
			v := 0
			if i < len(values) {
				v = int(values[i])
			}
			p.Put(ik(int(k)), iv(v))
			ref[int(k)] = strconv.Itoa(v)
		}
		if p.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			if got, ok := p.Get(ik(k)); !ok || got != v {
				return false
			}
		}
		_, err := p.check()
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIterationSorted: AscendAll always yields keys in strictly
// increasing order and visits exactly the live key set.
func TestQuickIterationSorted(t *testing.T) {
	f := func(ins []int16, del []int16) bool {
		p := NewPages(keyCmp)
		ref := map[int]bool{}
		for _, k := range ins {
			p.Put(ik(int(k)), nil)
			ref[int(k)] = true
		}
		for _, k := range del {
			p.Delete(ik(int(k)))
			delete(ref, int(k))
		}
		got := ascendInts(t, p, true, 0, nil)
		if len(got) != len(ref) {
			return false
		}
		for i, k := range got {
			if !ref[k] || (i > 0 && got[i-1] >= k) {
				return false
			}
		}
		_, err := p.check()
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAscendFromMatchesSort: Ascend(from) equals the sorted suffix
// of the key set.
func TestQuickAscendFromMatchesSort(t *testing.T) {
	f := func(keys []int16, from int16) bool {
		p := NewPages(keyCmp)
		set := map[int]bool{}
		for _, k := range keys {
			p.Put(ik(int(k)), nil)
			set[int(k)] = true
		}
		want := []int{}
		for k := range set {
			if k >= int(from) {
				want = append(want, k)
			}
		}
		slices.Sort(want)
		return slices.Equal(ascendInts(t, p, false, int(from), nil), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
