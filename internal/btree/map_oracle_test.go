package btree

// Map's deletion, Ascend from a key and Min: only tests use them, the page
// tree's oracle (runPages) among them, so they are built with the tests
// alone.

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

// Ascend visits all entries with key >= from in ascending order until fn
// returns false.
func (m *Map[K, V]) Ascend(from K, fn func(K, V) bool) {
	m.ascendFrom(m.root, &from, fn)
}

func (m *Map[K, V]) ascendFrom(n *node[K, V], from *K, fn func(K, V) bool) bool {
	if n == nil {
		return true
	}
	start := 0
	if from != nil {
		start, _ = m.search(n.items, *from)
	}
	for i := start; i < len(n.items); i++ {
		if !n.leaf() {
			if !m.ascendFrom(n.kids[i], from, fn) {
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
		return m.ascendFrom(n.kids[len(n.kids)-1], from, fn)
	}
	return true
}
