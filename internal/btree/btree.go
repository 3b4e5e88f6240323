// Package btree implements in-memory B-trees with ordered iteration, and
// the append-only record log the history store keeps on disk.
//
// Pages is the storage engine's tree: minidb builds its primary and
// secondary indexes on it, because range scans and next-key lookups — the
// operations InnoDB-style gap/next-key locking is defined over — require
// an ordered structure, not a hash map. Its keys and values are byte
// strings kept in one page per node, as InnoDB keeps an index's records in
// its pages, so the collector marks a node, not every key and row, and the
// views it hands out stay valid because no entry's bytes are written twice.
//
// Map is the generic tree, for values that are not bytes: the history
// store keeps its events, pointers each, in one.
package btree

// degree is the minimum number of children of an internal node. Nodes hold
// between degree-1 and 2*degree-1 items.
const degree = 16

const maxItems = 2*degree - 1

// Map is an ordered map from K to V. The comparator defines the total
// order; it returns <0, 0, >0 like strings.Compare. Map is not safe for
// concurrent use; minidb serializes index access under its latch.
type Map[K, V any] struct {
	cmp  func(K, K) int
	root *node[K, V]
	size int
}

type item[K, V any] struct {
	k K
	v V
}

type node[K, V any] struct {
	items []item[K, V]
	kids  []*node[K, V] // nil for leaves
}

func (n *node[K, V]) leaf() bool { return n.kids == nil }

// New returns an empty map ordered by cmp.
func New[K, V any](cmp func(K, K) int) *Map[K, V] {
	return &Map[K, V]{cmp: cmp}
}

// Len returns the number of entries.
func (m *Map[K, V]) Len() int { return m.size }

// search returns the position of k in items and whether it was found.
func (m *Map[K, V]) search(items []item[K, V], k K) (int, bool) {
	lo, hi := 0, len(items)
	for lo < hi {
		mid := (lo + hi) / 2
		c := m.cmp(items[mid].k, k)
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
func (m *Map[K, V]) Get(k K) (V, bool) {
	n := m.root
	for n != nil {
		i, ok := m.search(n.items, k)
		if ok {
			return n.items[i].v, true
		}
		if n.leaf() {
			break
		}
		n = n.kids[i]
	}
	var zero V
	return zero, false
}

// Set inserts or replaces the value under k. It reports whether the key
// was newly inserted.
func (m *Map[K, V]) Set(k K, v V) bool {
	if m.root == nil {
		m.root = &node[K, V]{items: []item[K, V]{{k, v}}}
		m.size = 1
		return true
	}
	if len(m.root.items) == maxItems {
		old := m.root
		m.root = &node[K, V]{kids: []*node[K, V]{old}}
		m.splitChild(m.root, 0)
	}
	inserted := m.insertNonFull(m.root, k, v)
	if inserted {
		m.size++
	}
	return inserted
}

// splitChild splits the full child at index i of parent.
func (m *Map[K, V]) splitChild(parent *node[K, V], i int) {
	child := parent.kids[i]
	mid := len(child.items) / 2
	midItem := child.items[mid]

	right := &node[K, V]{}
	right.items = append(right.items, child.items[mid+1:]...)
	child.items = child.items[:mid]
	if !child.leaf() {
		right.kids = append(right.kids, child.kids[mid+1:]...)
		child.kids = child.kids[:mid+1]
	}

	parent.items = append(parent.items, item[K, V]{})
	copy(parent.items[i+1:], parent.items[i:])
	parent.items[i] = midItem

	parent.kids = append(parent.kids, nil)
	copy(parent.kids[i+2:], parent.kids[i+1:])
	parent.kids[i+1] = right
}

func (m *Map[K, V]) insertNonFull(n *node[K, V], k K, v V) bool {
	for {
		i, ok := m.search(n.items, k)
		if ok {
			n.items[i].v = v
			return false
		}
		if n.leaf() {
			n.items = append(n.items, item[K, V]{})
			copy(n.items[i+1:], n.items[i:])
			n.items[i] = item[K, V]{k, v}
			return true
		}
		if len(n.kids[i].items) == maxItems {
			m.splitChild(n, i)
			c := m.cmp(n.items[i].k, k)
			if c == 0 {
				n.items[i].v = v
				return false
			}
			if c < 0 {
				i++
			}
		}
		n = n.kids[i]
	}
}

// AscendAll visits every entry in ascending order until fn returns false.
func (m *Map[K, V]) AscendAll(fn func(K, V) bool) {
	m.ascend(m.root, fn)
}

func (m *Map[K, V]) ascend(n *node[K, V], fn func(K, V) bool) bool {
	if n == nil {
		return true
	}
	for i, it := range n.items {
		if !n.leaf() && !m.ascend(n.kids[i], fn) {
			return false
		}
		if !fn(it.k, it.v) {
			return false
		}
	}
	return n.leaf() || m.ascend(n.kids[len(n.kids)-1], fn)
}
