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

// Delete removes k and reports whether it was present.
func (m *Map[K, V]) Delete(k K) bool {
	if m.root == nil {
		return false
	}
	deleted := m.delete(m.root, k)
	if len(m.root.items) == 0 {
		if m.root.leaf() {
			m.root = nil
		} else {
			m.root = m.root.kids[0]
		}
	}
	if deleted {
		m.size--
	}
	return deleted
}

// delete removes k from the subtree rooted at n, which is guaranteed by
// the caller to have at least degree items (except the root). This is the
// standard CLRS deletion: fix up child sizes on the way down so no
// underflow propagates back up.
func (m *Map[K, V]) delete(n *node[K, V], k K) bool {
	i, found := m.search(n.items, k)
	if n.leaf() {
		if !found {
			return false
		}
		n.items = append(n.items[:i], n.items[i+1:]...)
		return true
	}
	if found {
		switch {
		case len(n.kids[i].items) >= degree:
			// Replace with the predecessor and delete it below.
			pred := m.maxItem(n.kids[i])
			n.items[i] = pred
			return m.delete(n.kids[i], pred.k)
		case len(n.kids[i+1].items) >= degree:
			succ := m.minItem(n.kids[i+1])
			n.items[i] = succ
			return m.delete(n.kids[i+1], succ.k)
		default:
			m.mergeKids(n, i)
			return m.delete(n.kids[i], k)
		}
	}
	// Descend into kid i, topping it up first if it is minimal.
	if len(n.kids[i].items) < degree {
		i = m.fixKid(n, i)
	}
	return m.delete(n.kids[i], k)
}

func (m *Map[K, V]) maxItem(n *node[K, V]) item[K, V] {
	for !n.leaf() {
		n = n.kids[len(n.kids)-1]
	}
	return n.items[len(n.items)-1]
}

func (m *Map[K, V]) minItem(n *node[K, V]) item[K, V] {
	for !n.leaf() {
		n = n.kids[0]
	}
	return n.items[0]
}

// mergeKids merges kid i, separator i, and kid i+1 into kid i.
func (m *Map[K, V]) mergeKids(n *node[K, V], i int) {
	child, right := n.kids[i], n.kids[i+1]
	child.items = append(child.items, n.items[i])
	child.items = append(child.items, right.items...)
	child.kids = append(child.kids, right.kids...)
	n.items = append(n.items[:i], n.items[i+1:]...)
	n.kids = append(n.kids[:i+1], n.kids[i+2:]...)
}

// fixKid grows minimal kid i by rotation or merge and returns the index of
// the kid to descend into (merging with the left sibling shifts it).
func (m *Map[K, V]) fixKid(n *node[K, V], i int) int {
	switch {
	case i > 0 && len(n.kids[i-1].items) >= degree:
		// Rotate right: separator moves down, left sibling's max moves up.
		child, left := n.kids[i], n.kids[i-1]
		child.items = append(child.items, item[K, V]{})
		copy(child.items[1:], child.items)
		child.items[0] = n.items[i-1]
		n.items[i-1] = left.items[len(left.items)-1]
		left.items = left.items[:len(left.items)-1]
		if !child.leaf() {
			child.kids = append(child.kids, nil)
			copy(child.kids[1:], child.kids)
			child.kids[0] = left.kids[len(left.kids)-1]
			left.kids = left.kids[:len(left.kids)-1]
		}
		return i
	case i < len(n.kids)-1 && len(n.kids[i+1].items) >= degree:
		// Rotate left.
		child, right := n.kids[i], n.kids[i+1]
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		right.items = append(right.items[:0], right.items[1:]...)
		if !child.leaf() {
			child.kids = append(child.kids, right.kids[0])
			right.kids = append(right.kids[:0], right.kids[1:]...)
		}
		return i
	case i > 0:
		m.mergeKids(n, i-1)
		return i - 1
	default:
		m.mergeKids(n, i)
		return i
	}
}

// Ascend visits all entries with key >= from in ascending order until fn
// returns false.
func (m *Map[K, V]) Ascend(from K, fn func(K, V) bool) {
	m.ascend(m.root, &from, fn)
}

// AscendAll visits every entry in ascending order until fn returns false.
func (m *Map[K, V]) AscendAll(fn func(K, V) bool) {
	m.ascend(m.root, nil, fn)
}

func (m *Map[K, V]) ascend(n *node[K, V], from *K, fn func(K, V) bool) bool {
	if n == nil {
		return true
	}
	start := 0
	if from != nil {
		start, _ = m.search(n.items, *from)
	}
	for i := start; i < len(n.items); i++ {
		if !n.leaf() {
			if !m.ascend(n.kids[i], from, fn) {
				return false
			}
			from = nil // descended once; all later keys are in range
		}
		if from != nil && m.cmp(n.items[i].k, *from) < 0 {
			continue
		}
		if !fn(n.items[i].k, n.items[i].v) {
			return false
		}
		from = nil
	}
	if !n.leaf() {
		return m.ascend(n.kids[len(n.kids)-1], from, fn)
	}
	return true
}

// Min returns the smallest key, or false when empty.
func (m *Map[K, V]) Min() (K, V, bool) {
	n := m.root
	if n == nil {
		var k K
		var v V
		return k, v, false
	}
	for !n.leaf() {
		n = n.kids[0]
	}
	it := n.items[0]
	return it.k, it.v, true
}
