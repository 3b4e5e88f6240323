package minidb

import (
	"fmt"
	"slices"
	"strings"

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
	// steps holds each plan step's scan hits and bound row.
	steps []step
	// row is the row an INSERT or UPDATE writes, buf and buf2 the keys
	// being encoded, keys the secondary keys a write touches, out a
	// SELECT's output cells so far.
	row       Row
	buf, buf2 []byte
	keys      []string
	out       []Datum
	blocked   *blockedOn
}

// step is one plan step's scratch: the hits of its scan, and the row it
// is bound to, decoded, while bound is set.
type step struct {
	hits  []scanHit
	row   Row
	bound bool
}

// bind decodes a stored row into plan step i.
func (ex *executor) bind(i int, row string) Row {
	s := &ex.steps[i]
	s.row, s.bound = ex.txn.db.decodeRow(s.row, row), true
	return s.row
}

// key encodes ix's entry key of a row.
func (ex *executor) key(ix *index, row Row) string {
	ex.buf = ix.appendKey(ex.buf[:0], row)
	return string(ex.buf)
}

// lock try-acquires a record lock on an index entry or the gap below it
// (the empty key: below the supremum) and records the first blockage.
func (ex *executor) lock(ix *index, kind LockKind, key string, mode LockMode) bool {
	if ex.blocked != nil {
		return false
	}
	if ex.txn.db.lm.TryAcquire(ex.txn, ix.id, kind, key, mode) {
		return true
	}
	ex.blocked = &blockedOn{res: resource{ix.id, kind, key}, mode: mode}
	return false
}

// lockGapAbove locks the gap that k's successor in the index bounds (the
// supremum's when k has none): the gap a new entry k lands in, and the gap
// that inherits a purged entry's protection.
func (ex *executor) lockGapAbove(ix *index, k string, mode LockMode) bool {
	var succ string
	ix.entries.Ascend(k, func(key, _ string) bool {
		if key == k {
			return true // skip the key itself (its tombstone, or the row being deleted)
		}
		succ = key
		return false
	})
	return ex.lock(ix, GapLock, succ, mode)
}

// ---------------------------------------------------------------------------
// Scanning

// scanHit is one row produced by an index scan: its primary key and the
// row, both encoded, views of the pages they were read from.
type scanHit struct {
	pk, row string
}

// scanIndex fetches the rows of plan step i matching the equality prefix,
// acquiring locks as InnoDB does while traversing: unique point queries
// lock just the record; other scans take next-key locks on every visited
// entry plus the gap before the first entry beyond the range; empty
// results lock that gap alone. Secondary-index hits additionally lock the
// primary record (Alg. 2 of the paper models exactly this procedure).
func (ex *executor) scanIndex(ac *access, i int, pfx string, mode LockMode) []scanHit {
	primary := ac.ts.indexes[0]
	ix := ac.ix
	if ix == nil {
		ix = primary
	}
	uniquePoint := ix.Unique && len(ac.eq) == len(ix.Columns)

	hits := ex.steps[i].hits[:0]
	done := false
	visit := func(entry, pk, row string, deleted bool) bool {
		if !strings.HasPrefix(entry, pfx) {
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
		ix.entries.Ascend(pfx, func(k, v string) bool {
			return visit(k, k, v[1:], deleted(v))
		})
	} else {
		ix.entries.Ascend(pfx, func(k, v string) bool {
			pk := ix.pkOf(k)
			if deleted(v) {
				return visit(k, pk, "", true)
			}
			pv, ok := primary.entries.Get(pk)
			if !ok || deleted(pv) {
				return visit(k, pk, "", true)
			}
			return visit(k, pk, pv[1:], false)
		})
	}
	ex.steps[i].hits = hits
	if ex.blocked != nil {
		return nil
	}
	if !done && !(uniquePoint && len(hits) > 0) {
		// Ran off the end of the index: the supremum gap bounds the scan.
		ex.lock(ix, GapLock, "", mode)
	}
	return hits
}

// prefixKey encodes the access's equality bindings; false means a NULL
// (or unbound) value, which matches nothing.
func (ex *executor) prefixKey(ac *access) (string, bool) {
	ex.buf = ex.buf[:0]
	for i := range ac.eq {
		d, ok := ex.resolve(&ac.eq[i])
		if !ok || d.Null {
			return "", false
		}
		ex.buf = appendKeyField(ex.buf, d)
	}
	return string(ex.buf), true
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
	for _, h := range ex.scanIndex(ac, i, pfx, LockS) {
		ex.bind(i, h.row)
		ex.join(p, i+1)
		if ex.blocked != nil {
			return
		}
	}
	ex.steps[i].bound = false
}

// ---------------------------------------------------------------------------
// UPDATE

func (ex *executor) execUpdate(p *prepared) (ResultSet, error) {
	hits := ex.writeScan(p)
	if ex.blocked != nil {
		return ResultSet{}, nil
	}
	if p.setErr != nil {
		return ResultSet{}, p.setErr
	}
	var rs ResultSet
	for _, h := range hits {
		if ok, err := ex.rewrite(p.plan[0].ts, h.pk, h.row, p.set, "SET"); !ok {
			return ResultSet{}, err
		}
		rs.Affected++
	}
	return rs, nil
}

// rewrite applies assignments to one stored row. It X-locks the secondary
// entries whose keys change and checks the unique ones before it writes
// anything; false with a nil error means one of those locks blocked.
func (ex *executor) rewrite(ts *tableStore, pk, stored string, set []assign, clause string) (bool, error) {
	row := ex.bind(0, stored)
	ex.row = append(ex.row[:0], row...)
	for i := range set {
		d, ok := ex.resolve(&set[i].val)
		if !ok {
			return false, fmt.Errorf("minidb: unresolvable %s value %s", clause, set[i].val.Operand)
		}
		ex.row[set[i].pos] = d
	}
	// keys holds each secondary's old and new key, both "" when unchanged.
	ex.keys = ex.keys[:0]
	for _, ix := range ts.indexes[1:] {
		ex.buf, ex.buf2 = ix.appendKey(ex.buf[:0], row), ix.appendKey(ex.buf2[:0], ex.row)
		if string(ex.buf) == string(ex.buf2) {
			ex.keys = append(ex.keys, "", "")
			continue
		}
		oldK, newK := string(ex.buf), string(ex.buf2)
		ex.keys = append(ex.keys, oldK, newK)
		if !(ex.lock(ix, RecordLock, oldK, LockX) && ex.lock(ix, RecordLock, newK, LockX)) {
			return false, nil
		}
		dup, ok := ex.duplicate(ix, ex.row, newK)
		if !ok {
			return false, nil
		}
		if dup != "" {
			return false, ex.duplicateKey(ts, dup)
		}
	}
	for i, ix := range ts.indexes[1:] {
		if oldK, newK := ex.keys[2*i], ex.keys[2*i+1]; oldK != "" {
			// The old entry becomes a tombstone purged at commit; the new
			// entry goes live.
			ex.txn.put(ix, oldK, []byte{deadEntry})
			ex.txn.purge = append(ex.txn.purge, purgeRec{ix: ix, key: oldK})
			ex.txn.put(ix, newK, []byte{liveEntry})
		}
	}
	ex.buf = appendEntry(ex.buf[:0], ex.row)
	ex.txn.put(ts.indexes[0], pk, ex.buf)
	return true, nil
}

// appendEntry appends the encoding of row as a live primary entry's value.
func appendEntry(b []byte, row Row) []byte {
	b = append(b, liveEntry)
	for _, d := range row {
		b = appendRowField(b, d)
	}
	return b
}

// duplicate looks for a live entry of the unique index ix that shares the
// unique columns of key, the entry of row, and returns its primary key, or
// "". A tombstone there S-locks, serializing the check against its
// deleter; false means that lock blocked.
func (ex *executor) duplicate(ix *index, row Row, key string) (string, bool) {
	_, live, tomb := ix.probe(row, key)
	if live != "" {
		return ix.pkOf(live), true
	}
	return "", tomb == "" || ex.lock(ix, RecordLock, tomb, LockS)
}

// probe looks up the entries that share key's unique columns, its prefix
// pfx (on the primary, all of key), in the unique index ix, where key is
// row's entry: a live one's key, or else a tombstone's. pfx is "" when ix
// is not unique or row has a NULL there, which collides with nothing, as
// in InnoDB.
func (ix *index) probe(row Row, key string) (pfx, live, tomb string) {
	if !ix.Unique || slices.ContainsFunc(ix.cols[:len(ix.Columns)], func(c int) bool { return row[c].Null }) {
		return "", "", ""
	}
	pfx = key[:len(key)-len(ix.pkOf(key))]
	ix.entries.Ascend(pfx, func(k, v string) bool {
		if !strings.HasPrefix(k, pfx) {
			return false
		}
		if deleted(v) {
			tomb = k
			return true // a tombstone is not a duplicate; keep looking
		}
		live = k
		return false
	})
	return pfx, live, tomb
}

// duplicateKey locks the primary record pk a write collided with shared,
// as InnoDB does, and returns the statement's error; nil when the lock
// blocked.
func (ex *executor) duplicateKey(ts *tableStore, pk string) error {
	if !ex.lock(ts.indexes[0], RecordLock, pk, LockS) {
		return nil
	}
	return fmt.Errorf("%w: %s%v", ErrDuplicateKey, ts.meta.Name, ex.txn.db.decodeRow(nil, pk))
}

// writeScan locates rows matching a single-table WHERE with X locks.
func (ex *executor) writeScan(p *prepared) []scanHit {
	pfx, ok := ex.prefixKey(&p.plan[0])
	if !ok {
		return nil
	}
	hits := ex.scanIndex(&p.plan[0], 0, pfx, LockX)
	matched := hits[:0]
	for _, h := range hits {
		ex.bind(0, h.row)
		if ex.evalCond(&p.cond) {
			matched = append(matched, h)
		}
	}
	ex.steps[0].bound = false
	return matched
}

// ---------------------------------------------------------------------------
// INSERT / UPSERT

func (ex *executor) execInsert(p *prepared) (ResultSet, error) {
	ts := p.plan[0].ts
	table, primary, secondaries := ts.meta.Name, ts.indexes[0], ts.indexes[1:]
	ex.row = append(ex.row[:0], p.blank...)
	for i := range p.set {
		d, ok := ex.resolve(&p.set[i].val)
		if !ok {
			return ResultSet{}, fmt.Errorf("minidb: unresolvable INSERT value %s", p.set[i].val.Operand)
		}
		ex.row[p.set[i].pos] = d
	}
	for _, c := range primary.cols {
		if ex.row[c].Null {
			return ResultSet{}, fmt.Errorf("minidb: NULL primary key in INSERT INTO %s", table)
		}
	}
	pk := ex.key(primary, ex.row)

	// Duplicate on the primary key? A delete-marked tombstone is not a
	// duplicate, but inserting over it must first serialize against the
	// deleter via its record lock.
	if v, exists := primary.entries.Get(pk); exists {
		if !deleted(v) {
			return ex.insertDuplicate(p, pk)
		}
		if !ex.lock(primary, RecordLock, pk, LockX) {
			return ResultSet{}, nil
		}
	}
	// Duplicate on a unique secondary?
	ex.keys = ex.keys[:0]
	for _, ix := range secondaries {
		k := ex.key(ix, ex.row)
		ex.keys = append(ex.keys, k)
		dup, ok := ex.duplicate(ix, ex.row, k)
		if !ok {
			return ResultSet{}, nil
		}
		if dup != "" {
			return ex.insertDuplicate(p, dup)
		}
	}

	// Insert intention against the gap each new entry lands in: waits for
	// any gap lock another transaction holds over that gap. This is the
	// collision underlying the paper's d1 (merge) and d2 (check-then-
	// insert) deadlocks.
	if !ex.lockGapAbove(primary, pk, LockII) {
		return ResultSet{}, nil
	}
	for i, ix := range secondaries {
		if !ex.lockGapAbove(ix, ex.keys[i], LockII) {
			return ResultSet{}, nil
		}
	}
	if !ex.lock(primary, RecordLock, pk, LockX) {
		return ResultSet{}, nil
	}
	for i, ix := range secondaries {
		if !ex.lock(ix, RecordLock, ex.keys[i], LockX) {
			return ResultSet{}, nil
		}
	}

	ex.buf = appendEntry(ex.buf[:0], ex.row)
	ex.txn.put(primary, pk, ex.buf)
	for i, ix := range secondaries {
		ex.txn.put(ix, ex.keys[i], []byte{liveEntry})
	}
	return ResultSet{Affected: 1}, nil
}

// insertDuplicate handles a uniqueness collision: plain INSERT locks the
// existing record shared (as InnoDB does) and fails; UPSERT locks it
// exclusive and applies the ON DUPLICATE KEY UPDATE assignments.
func (ex *executor) insertDuplicate(p *prepared, pk string) (ResultSet, error) {
	ts := p.plan[0].ts
	if p.onDup == nil {
		return ResultSet{}, ex.duplicateKey(ts, pk)
	}
	if !ex.lock(ts.indexes[0], RecordLock, pk, LockX) {
		return ResultSet{}, nil
	}
	v, ok := ts.indexes[0].entries.Get(pk)
	if !ok || deleted(v) {
		return ResultSet{}, fmt.Errorf("minidb: upsert target vanished")
	}
	if ok, err := ex.rewrite(ts, pk, v[1:], p.onDup, "UPSERT"); !ok {
		return ResultSet{}, err
	}
	return ResultSet{Affected: 2}, nil
}

// ---------------------------------------------------------------------------
// DELETE

func (ex *executor) execDelete(p *prepared) ResultSet {
	ts := p.plan[0].ts
	hits := ex.writeScan(p)
	// keys holds each hit's secondary keys, hit by hit.
	ex.keys = ex.keys[:0]
	for _, h := range hits {
		row, first := ex.bind(0, h.row), len(ex.keys)
		for _, ix := range ts.indexes[1:] {
			k := ex.key(ix, row)
			ex.keys = append(ex.keys, k)
			if !ex.lock(ix, RecordLock, k, LockX) {
				return ResultSet{}
			}
		}
		// Gap inheritance: when a delete-marked record is purged, the
		// locks protecting it transfer to the surrounding gap, so readers
		// probing the vanished key still block on the deleter. Model it
		// by locking the successor's gap on every touched index.
		if !ex.lockGapAbove(ts.indexes[0], h.pk, LockX) {
			return ResultSet{}
		}
		for i, ix := range ts.indexes[1:] {
			if !ex.lockGapAbove(ix, ex.keys[first+i], LockX) {
				return ResultSet{}
			}
		}
	}
	if ex.blocked != nil {
		return ResultSet{}
	}
	var rs ResultSet
	n := len(ts.indexes) - 1
	for i, h := range hits {
		ex.buf = append(append(ex.buf[:0], deadEntry), h.row...)
		ex.txn.markDeleted(ts, h.pk, ex.buf, ex.keys[i*n:(i+1)*n])
		rs.Affected++
	}
	return rs
}
