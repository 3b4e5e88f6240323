// Package btree implements the storage engine's in-memory B-tree and the
// append-only record log the history store keeps on disk.
//
// Pages is the storage engine's tree: minidb builds its primary and
// secondary indexes on it, because range scans and next-key lookups — the
// operations InnoDB-style gap/next-key locking is defined over — require
// an ordered structure, not a hash map. Its keys and values are byte
// strings kept in one page per node, as InnoDB keeps an index's records in
// its pages, so the collector marks a node, not every key and row, and the
// views it hands out stay valid because no entry's bytes are written twice.
//
// Log is the history store's write-ahead record log: checksummed frames,
// crash-safe reload with torn-tail truncation, and one rewrite path.
package btree

import (
	"encoding/binary"
	"slices"
	"unsafe"
)

// Pages is an ordered map from string keys to byte-string values for a
// storage engine's indexes (minidb's). It is a B-tree whose nodes each
// keep all of their entries in one page, laid out as
//
//	n                      uint16 LE: the number of entries
//	m                      uint16 LE: the number of slots, n or more
//	slot[0..m)             three uint32 LE per entry, in key order: where
//	                       its key starts, where its value starts, where it ends
//	key value key value …  the entries' bytes, appended as they are written
//
// so a node is its page and its child pointers, however many entries it
// holds, and the collector marks a page without scanning it.
//
// An entry's bytes are never written again once they are written: a put
// appends the entry to the page's free space and points its slot there,
// and a page without room for the bytes or the slot is compacted into a
// new page, the old one left as it was. Every key and value Get, Put and
// Ascend hand out is a view of the bytes it was read from, so it stays
// valid, and keeps its page alive, for as long as the caller holds it.
// Pages is not safe for concurrent use, but views are: nothing writes the
// bytes they cover.
type Pages struct {
	cmp  func(a, b string) int
	root *pageNode
	size int
}

// pageDegree is the minimum number of children of an internal node; a
// page holds between pageDegree-1 and 2*pageDegree-1 entries. 32 was the
// best of 8, 16 and 32 on minidb's load workload (DESIGN.md, decision 11).
const pageDegree = 32

const (
	maxPageEntries = 2*pageDegree - 1
	pageHeader     = 4
	slotBytes      = 12
)

type pageNode struct {
	page page
	kids []*pageNode // nil for leaves
}

func (n *pageNode) leaf() bool { return n.kids == nil }

// page is one node's entries in the layout above; len is what has been
// written, and cap is the page.
type page []byte

// newPage returns an empty page with slots for 2n+2 entries (no more than
// a page holds) and room for size bytes of entries and as much again, or
// half as much from half a page on, where a page splits rather than grows.
func newPage(n, size int) page {
	m := min(2*n+2, maxPageEntries)
	start := pageHeader + slotBytes*m
	p := make(page, start, start+size+size>>min(n/(pageDegree-1), 1))
	binary.LittleEndian.PutUint16(p[2:], uint16(m))
	return p
}

func (p page) len() int   { return int(binary.LittleEndian.Uint16(p)) }
func (p page) slots() int { return int(binary.LittleEndian.Uint16(p[2:])) }

// slot returns entry i's key start, value start and end.
func (p page) slot(i int) (k, v, e int) {
	s := p[pageHeader+slotBytes*i : pageHeader+slotBytes*(i+1)]
	return int(binary.LittleEndian.Uint32(s)), int(binary.LittleEndian.Uint32(s[4:])), int(binary.LittleEndian.Uint32(s[8:]))
}

func (p page) setSlot(i, k, v, e int) {
	s := p[pageHeader+slotBytes*i : pageHeader+slotBytes*(i+1)]
	binary.LittleEndian.PutUint32(s, uint32(k))
	binary.LittleEndian.PutUint32(s[4:], uint32(v))
	binary.LittleEndian.PutUint32(s[8:], uint32(e))
}

func (p page) key(i int) string {
	k, v, _ := p.slot(i)
	return view(p[k:v])
}

func (p page) val(i int) string {
	_, v, e := p.slot(i)
	return view(p[v:e])
}

// view returns b as a string without copying it. The page tree's views
// are sound because nothing writes an entry's bytes once they are written.
func view(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// write makes k, v entry i of n: a new entry before the current entry i,
// or, with replace, that entry's new key and value. The bytes are
// appended; a page without room for them, or for a new entry's slot, is
// compacted first.
func write[V string | []byte](n *pageNode, i int, k string, v V, replace bool) {
	c := n.page.len()
	if len(n.page)+len(k)+len(v) > cap(n.page) || !replace && c == n.page.slots() {
		n.compact(len(k) + len(v))
	}
	at := len(n.page)
	n.page = append(append(n.page, k...), v...)
	if !replace {
		copy(n.page[pageHeader+slotBytes*(i+1):], n.page[pageHeader+slotBytes*i:pageHeader+slotBytes*c])
		binary.LittleEndian.PutUint16(n.page, uint16(c+1))
	}
	n.page.setSlot(i, at, at+len(k), len(n.page))
}

// remove drops entry i of n; its bytes stay until the page is compacted.
func (n *pageNode) remove(i int) {
	c := n.page.len()
	copy(n.page[pageHeader+slotBytes*i:], n.page[pageHeader+slotBytes*(i+1):pageHeader+slotBytes*c])
	binary.LittleEndian.PutUint16(n.page, uint16(c-1))
}

// bytes returns the size of entries [lo, hi).
func (p page) bytes(lo, hi int) int {
	size := 0
	for i := lo; i < hi; i++ {
		k, _, e := p.slot(i)
		size += e - k
	}
	return size
}

// compact moves n's entries into a new page with room for extra more
// bytes, leaving the old page as it was.
func (n *pageNode) compact(extra int) {
	old, c := n.page, n.page.len()
	n.page = newPage(c, old.bytes(0, c)+extra)
	copy(n.page, old[:2])
	for i := 0; i < c; i++ {
		k, v, e := old.slot(i)
		at := len(n.page)
		n.page = append(n.page, old[k:e]...)
		n.page.setSlot(i, at, at+v-k, len(n.page))
	}
}

// NewPages returns an empty page tree ordered by cmp.
func NewPages(cmp func(a, b string) int) *Pages {
	return &Pages{cmp: cmp}
}

// Len returns the number of entries.
func (t *Pages) Len() int { return t.size }

// search returns the position of k in p and whether it was found.
func (t *Pages) search(p page, k string) (int, bool) {
	lo, hi := 0, p.len()
	for lo < hi {
		mid := (lo + hi) / 2
		c := t.cmp(p.key(mid), k)
		switch {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// Get returns the value stored under k.
func (t *Pages) Get(k string) (string, bool) {
	n := t.root
	for n != nil {
		i, ok := t.search(n.page, k)
		if ok {
			return n.page.val(i), true
		}
		if n.leaf() {
			break
		}
		n = n.kids[i]
	}
	return "", false
}

// Put stores v under k and returns the value it replaced, if any.
func (t *Pages) Put(k string, v []byte) (old string, existed bool) {
	if t.root == nil {
		// Slots and room for eight entries like the first: no tiny pages.
		t.root = &pageNode{page: newPage(3, 4*(len(k)+len(v)))}
	}
	if t.root.page.len() == maxPageEntries {
		t.root = &pageNode{page: newPage(0, 0), kids: []*pageNode{t.root}}
		t.splitChild(t.root, 0)
	}
	n := t.root
	for {
		i, found := t.search(n.page, k)
		if found {
			old = n.page.val(i)
			write(n, i, n.page.key(i), v, true)
			return old, true
		}
		if n.leaf() {
			write(n, i, k, v, false)
			t.size++
			return "", false
		}
		if n.kids[i].page.len() == maxPageEntries {
			t.splitChild(n, i)
			c := t.cmp(n.page.key(i), k)
			if c == 0 {
				old = n.page.val(i)
				write(n, i, n.page.key(i), v, true)
				return old, true
			}
			if c < 0 {
				i++
			}
		}
		n = n.kids[i]
	}
}

// splitChild splits the full child at index i of parent.
func (t *Pages) splitChild(parent *pageNode, i int) {
	child := parent.kids[i]
	p, mid := child.page, maxPageEntries/2
	right := &pageNode{page: newPage(mid, p.bytes(mid+1, maxPageEntries))}
	for j := mid + 1; j < maxPageEntries; j++ {
		write(right, j-mid-1, p.key(j), p.val(j), false)
	}
	mk, mv := p.key(mid), p.val(mid)
	binary.LittleEndian.PutUint16(p, uint16(mid))
	child.compact(0)
	if !child.leaf() {
		right.kids = slices.Clone(child.kids[mid+1:])
		clear(child.kids[mid+1:])
		child.kids = child.kids[:mid+1]
	}
	write(parent, i, mk, mv, false)
	parent.kids = slices.Insert(parent.kids, i+1, right)
}

// Delete removes k and reports whether it was present.
func (t *Pages) Delete(k string) bool {
	if t.root == nil {
		return false
	}
	deleted := t.delete(t.root, k)
	if t.root.page.len() == 0 { // a merge below may have emptied the root
		if t.root.leaf() {
			t.root = nil
		} else {
			t.root = t.root.kids[0]
		}
	}
	if deleted {
		t.size--
	}
	return deleted
}

// delete removes k from the subtree rooted at n, which has at least
// pageDegree entries unless it is the root: CLRS deletion.
func (t *Pages) delete(n *pageNode, k string) bool {
	i, found := t.search(n.page, k)
	if n.leaf() {
		if !found {
			return false
		}
		n.remove(i)
		return true
	}
	if found {
		switch {
		case n.kids[i].page.len() >= pageDegree:
			// Replace with the predecessor and delete it below.
			m := n.kids[i]
			for !m.leaf() {
				m = m.kids[len(m.kids)-1]
			}
			last := m.page.len() - 1
			pk := m.page.key(last)
			write(n, i, pk, m.page.val(last), true)
			return t.delete(n.kids[i], pk)
		case n.kids[i+1].page.len() >= pageDegree:
			m := n.kids[i+1]
			for !m.leaf() {
				m = m.kids[0]
			}
			sk := m.page.key(0)
			write(n, i, sk, m.page.val(0), true)
			return t.delete(n.kids[i+1], sk)
		default:
			t.mergeKids(n, i)
			return t.delete(n.kids[i], k)
		}
	}
	// Descend into kid i, topping it up first if it is minimal.
	if n.kids[i].page.len() < pageDegree {
		i = t.fixKid(n, i)
	}
	return t.delete(n.kids[i], k)
}

// mergeKids merges kid i, separator i, and kid i+1 into kid i.
func (t *Pages) mergeKids(n *pageNode, i int) {
	child, right := n.kids[i], n.kids[i+1]
	c := child.page.len()
	write(child, c, n.page.key(i), n.page.val(i), false)
	for j := 0; j < right.page.len(); j++ {
		write(child, c+1+j, right.page.key(j), right.page.val(j), false)
	}
	child.kids = append(child.kids, right.kids...)
	n.remove(i)
	n.kids = slices.Delete(n.kids, i+1, i+2)
}

// fixKid grows minimal kid i by rotation or merge and returns the index of
// the kid to descend into (merging with the left sibling shifts it).
func (t *Pages) fixKid(n *pageNode, i int) int {
	switch {
	case i > 0 && n.kids[i-1].page.len() >= pageDegree:
		// Rotate right: separator moves down, left sibling's max moves up.
		child, left := n.kids[i], n.kids[i-1]
		last := left.page.len() - 1
		write(child, 0, n.page.key(i-1), n.page.val(i-1), false)
		write(n, i-1, left.page.key(last), left.page.val(last), true)
		left.remove(last)
		if !child.leaf() {
			child.kids = slices.Insert(child.kids, 0, left.kids[last+1])
			left.kids = slices.Delete(left.kids, last+1, last+2)
		}
		return i
	case i < len(n.kids)-1 && n.kids[i+1].page.len() >= pageDegree:
		// Rotate left.
		child, right := n.kids[i], n.kids[i+1]
		write(child, child.page.len(), n.page.key(i), n.page.val(i), false)
		write(n, i, right.page.key(0), right.page.val(0), true)
		right.remove(0)
		if !child.leaf() {
			child.kids = append(child.kids, right.kids[0])
			right.kids = slices.Delete(right.kids, 0, 1)
		}
		return i
	case i > 0:
		t.mergeKids(n, i-1)
		return i - 1
	default:
		t.mergeKids(n, i)
		return i
	}
}

// Ascend visits all entries with key >= from in ascending order until fn
// returns false.
func (t *Pages) Ascend(from string, fn func(k, v string) bool) {
	t.ascend(t.root, &from, fn)
}

// AscendAll visits every entry in ascending order until fn returns false.
func (t *Pages) AscendAll(fn func(k, v string) bool) {
	t.ascend(t.root, nil, fn)
}

func (t *Pages) ascend(n *pageNode, from *string, fn func(k, v string) bool) bool {
	if n == nil {
		return true
	}
	p := n.page
	start := 0
	if from != nil {
		start, _ = t.search(p, *from)
	}
	for i := start; i < p.len(); i++ {
		if !n.leaf() {
			if !t.ascend(n.kids[i], from, fn) {
				return false
			}
			from = nil // descended once; all later keys are in range
		}
		k := p.key(i)
		if from != nil && t.cmp(k, *from) < 0 {
			continue
		}
		if !fn(k, p.val(i)) {
			return false
		}
		from = nil
	}
	if !n.leaf() {
		return t.ascend(n.kids[len(n.kids)-1], from, fn)
	}
	return true
}
