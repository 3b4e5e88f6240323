package btree

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The page tree's tests use keys in minidb's key encoding (minidb's
// datum.go): one tagged field per datum, 'N' for NULL, 'I' and an int64
// big-endian, 'S' and a uvarint length and the bytes. keyCmp orders them
// as minidb's cmpKey does, field by field, a proper prefix first.

func keyField(b []byte, null bool, i int64, s *string) []byte {
	switch {
	case null:
		return append(b, 'N')
	case s != nil:
		return append(binary.AppendUvarint(append(b, 'S'), uint64(len(*s))), *s...)
	}
	return binary.BigEndian.AppendUint64(append(b, 'I'), uint64(i))
}

func splitField(s string) (byte, string, string) {
	switch s[0] {
	case 'I':
		return 'I', s[1:9], s[9:]
	case 'S':
		n, w := binary.Uvarint([]byte(s[1:]))
		return 'S', s[1+w : 1+w+int(n)], s[1+w+int(n):]
	}
	return s[0], "", s[1:]
}

func keyCmp(a, b string) int {
	for a != "" && b != "" {
		ta, va, ra := splitField(a)
		tb, vb, rb := splitField(b)
		c := 0
		switch {
		case ta == 'N' && tb == 'N':
		case ta == 'N':
			c = -1
		case tb == 'N':
			c = 1
		case ta == 'I':
			c = cmp.Compare(int64(binary.BigEndian.Uint64([]byte(va))), int64(binary.BigEndian.Uint64([]byte(vb))))
		default:
			c = strings.Compare(va, vb)
		}
		if c != 0 {
			return c
		}
		a, b = ra, rb
	}
	return cmp.Compare(len(a), len(b))
}

// check verifies the tree's shape: entry counts within the degree bounds
// (the root excepted), keys strictly ascending across the whole tree,
// every leaf at one depth, and Len. It returns the tree's height.
func (t *Pages) check() (int, error) {
	if t.root == nil {
		if t.size != 0 {
			return 0, fmt.Errorf("empty tree has Len %d", t.size)
		}
		return 0, nil
	}
	var prev *string
	count, leafDepth := 0, -1
	var walk func(n *pageNode, depth int) error
	walk = func(n *pageNode, depth int) error {
		l := n.page.len()
		if l > maxPageEntries || (n != t.root && l < pageDegree-1) || (n == t.root && l == 0) {
			return fmt.Errorf("node at depth %d holds %d entries", depth, l)
		}
		if !n.leaf() && len(n.kids) != l+1 {
			return fmt.Errorf("node with %d entries has %d kids", l, len(n.kids))
		}
		if n.leaf() {
			if leafDepth >= 0 && depth != leafDepth {
				return fmt.Errorf("leaves at depths %d and %d", leafDepth, depth)
			}
			leafDepth = depth
		}
		for i := 0; i <= l; i++ {
			if !n.leaf() {
				if err := walk(n.kids[i], depth+1); err != nil {
					return err
				}
			}
			if i == l {
				break
			}
			k := n.page.key(i)
			if prev != nil && t.cmp(*prev, k) >= 0 {
				return fmt.Errorf("key %q after %q", k, *prev)
			}
			prev = &k
			count++
		}
		return nil
	}
	if err := walk(t.root, 0); err != nil {
		return 0, err
	}
	if count != t.size {
		return 0, fmt.Errorf("tree holds %d entries, Len %d", count, t.size)
	}
	return leafDepth + 1, nil
}

// pagesOp decodes one operation of FuzzPages from four bytes: what to do,
// and the key's int field, its string field, and a value or count whose
// top two bits the int field also takes.
type pagesOp struct{ op, a, b, c byte }

// key encodes a and c's top bits, and b, as a two-field key; fields is
// 0, 1 or 2 for a prefix, as a scan's start.
func (o pagesOp) key(fields int) string {
	var b []byte
	if fields > 0 {
		b = keyField(b, o.a == 0, int64(int8(o.a))*0x10000000001+int64(o.c>>6), nil)
	}
	if fields > 1 {
		s := strings.Repeat(string(rune('a'+o.b>>2&3)), int(o.b>>4&3))
		b = keyField(b, o.b&3 == 0, 0, &s)
	}
	return string(b)
}

func (o pagesOp) value() []byte {
	v := []byte{o.c & 1}
	for i := 0; i < int(o.c%40); i++ {
		v = append(v, o.c+byte(i))
	}
	return v
}

// seen is a key or value the tree handed out, and the bytes it read then.
type seen struct{ got, want string }

// oracleScan returns oracle's entries with keys at or after from, in
// keyCmp order.
func oracleScan(oracle map[string]string, from string) []seen {
	var out []seen
	for k, v := range oracle {
		if keyCmp(k, from) >= 0 {
			out = append(out, seen{k, v})
		}
	}
	slices.SortFunc(out, func(a, b seen) int { return keyCmp(a.got, b.got) })
	return out
}

// runPages applies ops to a page tree and to a Go map oracle, comparing
// what each op returns and, after every every-th step and the last, the
// whole of both, and checks then that every key and value the tree handed
// out still reads as it did when handed out. It returns the greatest
// height the tree reached.
func runPages(t *testing.T, ops []pagesOp, every int) (height int) {
	tree := NewPages(keyCmp)
	oracle := map[string]string{}
	var views []seen
	keep := func(s string) { views = append(views, seen{s, strings.Clone(s)}) }
	for step, o := range ops {
		switch o.op % 5 {
		case 0, 1: // Put, twice as often as the rest
			k, v := o.key(2), o.value()
			want, wantOK := oracle[k]
			got, ok := tree.Put(k, v)
			if got != want || ok != wantOK {
				t.Fatalf("step %d: Put(%q) returned %q, %v; want %q, %v", step, k, got, ok, want, wantOK)
			}
			keep(got)
			oracle[k] = string(v)
		case 2:
			k := o.key(2)
			_, want := oracle[k]
			delete(oracle, k)
			if got := tree.Delete(k); got != want {
				t.Fatalf("step %d: Delete(%q) = %v, want %v", step, k, got, want)
			}
		case 3:
			k := o.key(2)
			want, wantOK := oracle[k]
			got, ok := tree.Get(k)
			if got != want || ok != wantOK {
				t.Fatalf("step %d: Get(%q) = %q, %v; want %q, %v", step, k, got, ok, want, wantOK)
			}
			keep(got)
		case 4: // a scan from a prefix, stopped after c%8+1 entries
			from, limit := o.key(int(o.c%3)), int(o.c%8)+1
			want := oracleScan(oracle, from)
			want = want[:min(limit, len(want))]
			var got []seen
			tree.Ascend(from, func(k, v string) bool {
				got = append(got, seen{k, v})
				keep(k)
				keep(v)
				return len(got) < limit
			})
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d: Ascend(%q) = %q, want %q", step, from, got, want)
			}
		}
		if step%every != 0 && step != len(ops)-1 {
			continue
		}
		h, err := tree.check()
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		height = max(height, h)
		var got []seen
		tree.AscendAll(func(k, v string) bool { got = append(got, seen{k, v}); return true })
		if want := oracleScan(oracle, ""); tree.Len() != len(oracle) || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d: tree holds %d entries %q, oracle %d %q", step, tree.Len(), got, len(oracle), want)
		}
		for _, w := range views {
			if w.got != w.want {
				t.Fatalf("step %d: a view read %q now reads %q", step, w.want, w.got)
			}
		}
	}
	return height
}

// FuzzPages runs a byte string, four bytes an operation, as Put, Delete,
// Get and Ascend against the page tree and a Go map oracle: both hold the
// same entries after every step, the tree keeps its shape, and every
// view the tree handed out still reads its original bytes after the
// later puts, splits, merges and deletes (copy on write). Seeds are in
// testdata/fuzz/FuzzPages/.
func FuzzPages(f *testing.F) {
	f.Add([]byte("\x00\x01\x05\x07\x04\x00\x00\x03"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*2000 {
			return
		}
		ops := make([]pagesOp, len(data)/4)
		for i := range ops {
			ops[i] = pagesOp{data[4*i], data[4*i+1], data[4*i+2], data[4*i+3]}
		}
		runPages(t, ops, 1)
	})
}

// TestPagesDeep drives a tree three levels deep and then, deleting every
// key it touched, back to empty, checking it as FuzzPages does.
func TestPagesDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ops []pagesOp
	for i := 0; i < 8000; i++ {
		op := byte(rng.Intn(5))
		if i < 6000 {
			op = 0 // grow first
		}
		ops = append(ops, pagesOp{op, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
	}
	for _, o := range ops[:8000] {
		ops = append(ops, pagesOp{2, o.a, o.b, o.c})
	}
	if h := runPages(t, ops, 97); h < 3 {
		t.Errorf("the tree grew %d levels deep, want 3", h)
	}
}
