package minidb

import (
	"fmt"

	"weseer/internal/schema"
)

// The executor runs one statement pass under the storage latch. Locks are
// acquired with TryAcquire during index traversal — exactly where InnoDB
// acquires them; the first unavailable lock aborts the pass, the caller
// queues for it (and, under Exec, waits), and the statement restarts. Locks acquired by earlier
// passes remain held (strict 2PL), so progress is monotonic.

// blockedOn describes the lock a pass stopped at.
type blockedOn struct {
	res  resource
	mode LockMode
}

// executor is the statement-pass state. Passes run under the storage
// latch, one at a time, so a database has one executor, and its scratch
// slices stop growing after the first few statements.
type executor struct {
	txn    *Txn
	params []Datum
	// rows holds the row bound at each plan step, nil while unbound.
	rows []Row
	// pfx is the running scan's equality prefix, buf the encoded key of
	// the lock being requested, out a SELECT's output cells so far.
	pfx     Key
	buf     []byte
	out     []Datum
	blocked *blockedOn
}

// lock try-acquires a record lock on an index entry or the gap below it
// (a nil key: below the supremum) and records the first blockage.
func (ex *executor) lock(ix *index, kind LockKind, key Key, mode LockMode) bool {
	if ex.blocked != nil {
		return false
	}
	ex.buf = appendKey(ex.buf[:0], key)
	if ex.txn.db.lm.TryAcquire(ex.txn, ix.id, kind, ex.buf, mode) {
		return true
	}
	ex.blocked = &blockedOn{res: resource{ix.id, kind, string(ex.buf)}, mode: mode}
	return false
}

// lockGapAbove locks the gap that k's successor in the index bounds (the
// supremum's when k has none): the gap a new entry k lands in, and the gap
// that inherits a purged entry's protection.
func (ex *executor) lockGapAbove(ts *tableStore, ix *index, k Key, mode LockMode) bool {
	var succ Key
	next := func(key Key) bool {
		if key.Cmp(k) == 0 {
			return true // skip the key itself (its tombstone, or the row being deleted)
		}
		succ = key
		return false
	}
	if ix.entries == nil {
		ts.primary.Ascend(k, func(key Key, _ *rowEntry) bool { return next(key) })
	} else {
		ix.entries.Ascend(k, func(key Key, _ *secEntry) bool { return next(key) })
	}
	return ex.lock(ix, GapLock, succ, mode)
}

// ---------------------------------------------------------------------------
// Scanning

// scanHit is one row produced by an index scan.
type scanHit struct {
	pk  Key
	row Row
}

// scanIndex fetches rows matching the equality prefix, acquiring locks as
// InnoDB does while traversing: unique point queries lock just the
// record; other scans take next-key locks on every visited entry plus the
// gap before the first entry beyond the range; empty results lock that
// gap alone. Secondary-index hits additionally lock the primary record
// (Alg. 2 of the paper models exactly this procedure).
func (ex *executor) scanIndex(ac *access, pfx Key, mode LockMode) []scanHit {
	ts, primary := ac.ts, ac.ts.indexes[0]
	ix := ac.ix
	if ix == nil {
		ix = primary
	}
	uniquePoint := ix.Unique && len(pfx) == len(ix.Columns)

	var hits []scanHit
	done := false
	visit := func(entry Key, pk Key, row Row, deleted bool) bool {
		if !keyHasPrefix(entry, pfx) {
			// First entry beyond the range bounds the scanned gap.
			if !uniquePoint || len(hits) == 0 {
				ex.lock(ix, GapLock, entry, mode)
			}
			done = true
			return false
		}
		if !ex.lock(ix, RecordLock, entry, mode) {
			return false
		}
		if deleted {
			// Delete-marked tombstone: the record lock (just acquired)
			// serialized us against the deleter; the row itself is not
			// visible. Keep scanning — for point queries the boundary
			// branch then takes the protecting gap lock.
			return true
		}
		if !uniquePoint {
			if !ex.lock(ix, GapLock, entry, mode) {
				return false
			}
		}
		if ix.Type == schema.Secondary {
			// Lock the primary record backing the entry.
			if !ex.lock(primary, RecordLock, pk, mode) {
				return false
			}
		}
		hits = append(hits, scanHit{pk: pk, row: row})
		return !uniquePoint // a unique point query stops at its row
	}

	if ix.Type == schema.Primary {
		ts.primary.Ascend(pfx, func(k Key, e *rowEntry) bool {
			return visit(k, k, e.row, e.deleted)
		})
	} else {
		ix.entries.Ascend(pfx, func(k Key, e *secEntry) bool {
			if e.deleted {
				return visit(k, e.pk, nil, true)
			}
			pe, ok := ts.primary.Get(e.pk)
			if !ok || pe.deleted {
				return visit(k, e.pk, nil, true)
			}
			return visit(k, e.pk, pe.row, false)
		})
	}
	if ex.blocked != nil {
		return nil
	}
	if !done && !(uniquePoint && len(hits) > 0) {
		// Ran off the end of the index: the supremum gap bounds the scan.
		ex.lock(ix, GapLock, nil, mode)
	}
	return hits
}

func keyHasPrefix(k, pfx Key) bool {
	if len(k) < len(pfx) {
		return false
	}
	for i := range pfx {
		if k[i].Cmp(pfx[i]) != 0 {
			return false
		}
	}
	return true
}

// prefixKey resolves the access's equality bindings to datums, in the
// executor's scratch key: it is good until the next scan starts.
func (ex *executor) prefixKey(ac *access) (Key, bool) {
	ex.pfx = ex.pfx[:0]
	for i := range ac.eq {
		d, ok := ex.resolve(&ac.eq[i])
		if !ok || d.Null {
			return nil, false
		}
		ex.pfx = append(ex.pfx, d)
	}
	return ex.pfx, true
}

// ---------------------------------------------------------------------------
// SELECT

// join runs a SELECT from plan step i on: it binds the step to each of its
// matching rows in turn and, past the last step, appends the output cells
// of the bound rows to ex.out if they satisfy the query condition.
func (ex *executor) join(p *prepared, i int) {
	if ex.blocked != nil {
		return
	}
	if i == len(p.plan) {
		if !ex.evalCond(&p.cond) {
			return
		}
		for ci := range p.out {
			d, _ := ex.resolve(&p.out[ci])
			ex.out = append(ex.out, d)
		}
		return
	}
	ac := &p.plan[i]
	pfx, ok := ex.prefixKey(ac)
	if !ok {
		return // a NULL join key matches nothing
	}
	for _, h := range ex.scanIndex(ac, pfx, LockS) {
		ex.rows[i] = h.row
		ex.join(p, i+1)
		if ex.blocked != nil {
			return
		}
	}
	ex.rows[i] = nil
}

// result copies the output cells out of the scratch, in one allocation cut
// into rows of the given width.
func (ex *executor) result(width int) [][]Datum {
	if len(ex.out) == 0 {
		return nil
	}
	cells := append([]Datum(nil), ex.out...)
	rows := make([][]Datum, len(cells)/width)
	for i := range rows {
		rows[i] = cells[i*width : (i+1)*width : (i+1)*width]
	}
	return rows
}

// ---------------------------------------------------------------------------
// UPDATE

func (ex *executor) execUpdate(p *prepared) (*ResultSet, error) {
	hits := ex.writeScan(p)
	if ex.blocked != nil {
		return nil, nil
	}
	if p.setErr != nil {
		return nil, p.setErr
	}
	rs := &ResultSet{}
	for _, h := range hits {
		if ok, err := ex.rewrite(p.plan[0].ts, h.pk, h.row, p.set, "SET"); !ok {
			return nil, err
		}
		rs.Affected++
	}
	return rs, nil
}

// rewrite applies assignments to one stored row. It X-locks the secondary
// entries whose keys change before it writes anything; false with a nil
// error means one of those locks blocked.
func (ex *executor) rewrite(ts *tableStore, pk Key, row Row, set []assign, clause string) (bool, error) {
	ex.rows[0] = row
	newRow := row.clone()
	for i := range set {
		d, ok := ex.resolve(&set[i].val)
		if !ok {
			return false, fmt.Errorf("minidb: unresolvable %s value %s", clause, set[i].val.Operand)
		}
		newRow[set[i].pos] = d
	}
	changed := func(ix *index) bool {
		for _, c := range ix.cols {
			if row[c].Cmp(newRow[c]) != 0 {
				return true
			}
		}
		return false
	}
	for _, ix := range ts.indexes[1:] {
		if changed(ix) && !(ex.lock(ix, RecordLock, ix.keyOf(row), LockX) && ex.lock(ix, RecordLock, ix.keyOf(newRow), LockX)) {
			return false, nil
		}
	}
	for _, ix := range ts.indexes[1:] {
		if changed(ix) {
			// The old entry becomes a tombstone purged at commit; the new
			// entry goes live.
			oldK := ix.keyOf(row)
			ex.txn.putSecondary(ix, oldK, &secEntry{pk: pk, deleted: true})
			ex.txn.purge = append(ex.txn.purge, purgeRec{ix: ix, key: oldK})
			ex.txn.putSecondary(ix, ix.keyOf(newRow), &secEntry{pk: pk})
		}
	}
	ex.txn.putPrimary(ts, pk, &rowEntry{row: newRow})
	return true, nil
}

// writeScan locates rows matching a single-table WHERE with X locks.
func (ex *executor) writeScan(p *prepared) []scanHit {
	pfx, ok := ex.prefixKey(&p.plan[0])
	if !ok {
		return nil
	}
	hits := ex.scanIndex(&p.plan[0], pfx, LockX)
	matched := hits[:0]
	for _, h := range hits {
		ex.rows[0] = h.row
		if ex.evalCond(&p.cond) {
			matched = append(matched, h)
		}
	}
	ex.rows[0] = nil
	return matched
}

// ---------------------------------------------------------------------------
// INSERT / UPSERT

func (ex *executor) execInsert(p *prepared) (*ResultSet, error) {
	ts := p.plan[0].ts
	table, primary, secondaries := ts.meta.Name, ts.indexes[0], ts.indexes[1:]
	row := p.blank.clone()
	for i := range p.set {
		d, ok := ex.resolve(&p.set[i].val)
		if !ok {
			return nil, fmt.Errorf("minidb: unresolvable INSERT value %s", p.set[i].val.Operand)
		}
		row[p.set[i].pos] = d
	}
	pk := primary.keyOf(row)
	for _, d := range pk {
		if d.Null {
			return nil, fmt.Errorf("minidb: NULL primary key in INSERT INTO %s", table)
		}
	}

	// Duplicate on the primary key? A delete-marked tombstone is not a
	// duplicate, but inserting over it must first serialize against the
	// deleter via its record lock.
	if e, exists := ts.primary.Get(pk); exists {
		if !e.deleted {
			return ex.insertDuplicate(p, pk)
		}
		if !ex.lock(primary, RecordLock, pk, LockX) {
			return nil, nil
		}
	}
	// Duplicate on a unique secondary?
	keys := make([]Key, len(secondaries))
	for i, ix := range secondaries {
		keys[i] = ix.keyOf(row)
		if !ix.Unique {
			continue
		}
		pfx := keys[i][:len(ix.Columns)]
		var dupPK, tombK Key
		ix.entries.Ascend(pfx, func(k Key, e *secEntry) bool {
			if !keyHasPrefix(k, pfx) {
				return false
			}
			if e.deleted {
				tombK = k
				return true // a tombstone is not a duplicate; keep looking
			}
			dupPK = e.pk
			return false
		})
		if dupPK != nil {
			return ex.insertDuplicate(p, dupPK)
		}
		if tombK != nil {
			// Serialize the uniqueness check against the in-flight deleter.
			if !ex.lock(ix, RecordLock, tombK, LockS) {
				return nil, nil
			}
		}
	}

	// Insert intention against the gap each new entry lands in: waits for
	// any gap lock another transaction holds over that gap. This is the
	// collision underlying the paper's d1 (merge) and d2 (check-then-
	// insert) deadlocks.
	if !ex.lockGapAbove(ts, primary, pk, LockII) {
		return nil, nil
	}
	for i, ix := range secondaries {
		if !ex.lockGapAbove(ts, ix, keys[i], LockII) {
			return nil, nil
		}
	}
	if !ex.lock(primary, RecordLock, pk, LockX) {
		return nil, nil
	}
	for i, ix := range secondaries {
		if !ex.lock(ix, RecordLock, keys[i], LockX) {
			return nil, nil
		}
	}

	ex.txn.putPrimary(ts, pk, &rowEntry{row: row})
	for i, ix := range secondaries {
		ex.txn.putSecondary(ix, keys[i], &secEntry{pk: pk})
	}
	return &ResultSet{Affected: 1}, nil
}

// insertDuplicate handles a uniqueness collision: plain INSERT locks the
// existing record shared (as InnoDB does) and fails; UPSERT locks it
// exclusive and applies the ON DUPLICATE KEY UPDATE assignments.
func (ex *executor) insertDuplicate(p *prepared, pk Key) (*ResultSet, error) {
	ts := p.plan[0].ts
	if p.onDup == nil {
		if !ex.lock(ts.indexes[0], RecordLock, pk, LockS) {
			return nil, nil
		}
		return nil, fmt.Errorf("%w: %s%s", ErrDuplicateKey, ts.meta.Name, pk)
	}
	if !ex.lock(ts.indexes[0], RecordLock, pk, LockX) {
		return nil, nil
	}
	entry, ok := ts.primary.Get(pk)
	if !ok || entry.deleted {
		return nil, fmt.Errorf("minidb: upsert target vanished")
	}
	if ok, err := ex.rewrite(ts, pk, entry.row, p.onDup, "UPSERT"); !ok {
		return nil, err
	}
	return &ResultSet{Affected: 2}, nil
}

// ---------------------------------------------------------------------------
// DELETE

func (ex *executor) execDelete(p *prepared) *ResultSet {
	ts := p.plan[0].ts
	hits := ex.writeScan(p)
	for _, h := range hits {
		for _, ix := range ts.indexes[1:] {
			if !ex.lock(ix, RecordLock, ix.keyOf(h.row), LockX) {
				return nil
			}
		}
		// Gap inheritance: when a delete-marked record is purged, the
		// locks protecting it transfer to the surrounding gap, so readers
		// probing the vanished key still block on the deleter. Model it
		// by locking the successor's gap on every touched index.
		if !ex.lockGapAbove(ts, ts.indexes[0], h.pk, LockX) {
			return nil
		}
		for _, ix := range ts.indexes[1:] {
			if !ex.lockGapAbove(ts, ix, ix.keyOf(h.row), LockX) {
				return nil
			}
		}
	}
	if ex.blocked != nil {
		return nil
	}
	rs := &ResultSet{}
	for _, h := range hits {
		ex.txn.markDeleted(ts, h.pk, h.row)
		rs.Affected++
	}
	return rs
}
