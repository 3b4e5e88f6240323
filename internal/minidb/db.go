package minidb

import (
	"errors"
	"fmt"
	"math/big"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"weseer/internal/btree"
	"weseer/internal/schema"
	"weseer/internal/sqlast"
)

// Execution errors.
var (
	// ErrDuplicateKey reports a primary or unique index violation.
	ErrDuplicateKey = errors.New("minidb: duplicate key")
	// ErrTxnDone reports use of a committed or aborted transaction.
	ErrTxnDone = errors.New("minidb: transaction is not active")
)

// Config tunes engine behavior.
type Config struct {
	// LockWaitTimeout bounds a single lock wait; the transaction aborts on
	// expiry. Defaults to 2s.
	LockWaitTimeout time.Duration
	// StatementDelay simulates per-statement client/server round-trip
	// latency (the paper's testbed talks to MySQL over a 10GbE network).
	// It is charged while the statement's locks are held, so aborted
	// transactions waste proportional work — the performance cost the
	// detect-and-recover strategy incurs. Zero disables it.
	StatementDelay time.Duration
}

// Stats are cumulative engine counters. Aborts counts every rolled-back
// transaction; Deadlocks counts deadlock victims specifically — the
// number the paper reports dropping from 904/s to 0 after fixes.
type Stats struct {
	Commits    int64
	Aborts     int64
	Deadlocks  int64
	LockWaits  int64
	Statements int64
}

// DB is an in-memory database instance.
type DB struct {
	scm *schema.Schema
	cfg Config
	lm  *lockManager

	// latch serializes physical access to table storage. Logical
	// isolation comes from the lock manager; the latch only protects the
	// in-memory structures, like InnoDB page latches.
	latch  sync.Mutex
	tables map[string]*tableStore
	ex     executor // guarded by latch
	// rats interns the decimals decoded from rows, so decoding allocates
	// only on a decimal's first sighting; nobody mutates a Datum's Rat.
	// It is emptied at maxRats entries. Guarded by latch.
	rats map[string]*big.Rat

	// One prepared form per statement template, found by the parse's
	// pointer or else by its text; the latest parse of a text owns the
	// form's one pointer entry, so the templates executed bound both maps.
	prepMu     sync.Mutex
	prepared   map[sqlast.Stmt]*prepared
	preparedBy map[string]*prepared

	txnSeq  atomic.Int64
	autoinc map[string]*atomic.Int64

	commits    atomic.Int64
	aborts     atomic.Int64
	statements atomic.Int64

	// afterStmt, when set, sees every statement that ran to completion (or
	// failed without aborting its transaction) while its locks are still
	// held. Only the package's tests set it, before any transaction runs.
	afterStmt func(*Txn, sqlast.Stmt)
}

// An entry's value is a tombstone byte, liveEntry or deadEntry, followed
// for a primary entry by the row's encoding (datum.go); a secondary
// entry's primary key is its key's suffix (index.pkOf). Deleted rows stay
// in the tree as delete-marked tombstones until the deleting transaction
// commits (purge) — readers probing the key block on the deleter's record
// lock instead of observing an uncommitted disappearance, as in InnoDB.
const (
	liveEntry byte = 'L'
	deadEntry byte = 'D'
)

// deleted reports whether an entry's value is delete-marked.
func deleted(v string) bool { return v[0] == deadEntry }

// index is one index of a table, laid out once at Open.
type index struct {
	*schema.Index
	// id numbers the (table, index) pair in the lock table.
	id uint32
	// cols are the row positions an entry key is read from: the indexed
	// columns, followed for a secondary by the primary key, so non-unique
	// entries stay distinct.
	cols []int
	// entries is the index's page tree, keyed by the entry keys.
	entries *btree.Pages
}

// appendKey appends the encoded entry key of a row.
func (ix *index) appendKey(b []byte, row Row) []byte {
	for _, p := range ix.cols {
		b = appendKeyField(b, row[p])
	}
	return b
}

// pkOf slices a secondary entry's primary key out of its key.
func (ix *index) pkOf(key string) string {
	for range ix.Columns {
		_, _, key = nextField(key)
	}
	return key
}

// tableStore is one table's storage and layout: a primary B-tree holding
// rows and one B-tree per secondary index.
type tableStore struct {
	meta   *schema.Table
	colPos map[string]int
	// indexes[0] is the primary; the secondaries follow in declaration
	// order, which is the planner's order of preference.
	indexes []*index
}

// col returns the position of a column in the table's rows.
func (ts *tableStore) col(name string) int {
	i, ok := ts.colPos[name]
	if !ok {
		panic(fmt.Sprintf("minidb: unknown column %s.%s", ts.meta.Name, name))
	}
	return i
}

// Open creates a database for the schema. Every table must have a
// primary key; heap tables are outside the supported subset.
func Open(scm *schema.Schema, cfg Config) *DB {
	if cfg.LockWaitTimeout == 0 {
		cfg.LockWaitTimeout = 2 * time.Second
	}
	db := &DB{
		scm:        scm,
		cfg:        cfg,
		lm:         newLockManager(),
		tables:     map[string]*tableStore{},
		rats:       map[string]*big.Rat{},
		prepared:   map[sqlast.Stmt]*prepared{},
		preparedBy: map[string]*prepared{},
		autoinc:    map[string]*atomic.Int64{},
	}
	for _, t := range scm.Tables() {
		pi := t.PrimaryIndex()
		if pi == nil {
			panic(fmt.Sprintf("minidb: table %s has no primary key", t.Name))
		}
		ts := &tableStore{meta: t, colPos: map[string]int{}}
		for i, c := range t.Columns {
			ts.colPos[c.Name] = i
		}
		for _, ix := range append([]*schema.Index{pi}, t.SecondaryIndexes()...) {
			in := &index{Index: ix, id: uint32(len(db.lm.tables)), entries: btree.NewPages(cmpKey)}
			db.lm.tables = append(db.lm.tables, t.Name)
			for _, c := range ix.Columns {
				in.cols = append(in.cols, ts.colPos[c])
			}
			if ix.Type == schema.Secondary {
				in.cols = append(in.cols, ts.indexes[0].cols...)
			}
			ts.indexes = append(ts.indexes, in)
		}
		db.tables[t.Name] = ts
		db.autoinc[t.Name] = &atomic.Int64{}
	}
	return db
}

// Schema returns the database schema.
func (db *DB) Schema() *schema.Schema { return db.scm }

// NextID returns the next auto-increment value for a table. The ORM uses
// it to assign primary keys to new persistent objects.
func (db *DB) NextID(table string) int64 {
	c, ok := db.autoinc[table]
	if !ok {
		panic("minidb: NextID of unknown table " + table)
	}
	return c.Add(1)
}

// BumpID raises the auto-increment floor to at least v; loading fixtures
// with explicit keys uses it to keep NextID collision-free.
func (db *DB) BumpID(table string, v int64) {
	c := db.autoinc[table]
	for {
		cur := c.Load()
		if cur >= v || c.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load is the fixture path: it writes rows, each in the table's column
// order, straight into the table's primary and secondary trees as
// committed data, storing exactly what an INSERT of the same values stores
// (an unset column holds the NULL datum of its kind), with no transaction,
// lock, undo record or statement. It checks the whole batch first — row
// width, NULL primary keys, duplicate primary or unique keys against the
// stored rows and within the batch — and refuses while any lock is held or
// queued, since fixtures load before traffic; an error writes nothing.
func (db *DB) Load(table string, rows []Row) error {
	ts, ok := db.tables[table]
	if !ok {
		return fmt.Errorf("minidb: Load into unknown table %s", table)
	}
	db.latch.Lock() // before lm.mu, as a statement pass takes them
	defer db.latch.Unlock()
	db.lm.mu.Lock()
	defer db.lm.mu.Unlock()
	if len(db.lm.queues) > 0 {
		return fmt.Errorf("minidb: Load into %s while locks are held or queued", table)
	}
	// keys holds every row's entry keys in index order, row after row.
	type taken struct{ ix, pfx string } // an index name and a unique prefix
	n, seen := len(ts.indexes), make(map[taken]bool, len(rows))
	keys := make([]string, 0, n*len(rows))
	var buf []byte
	for _, row := range rows {
		if len(row) != len(ts.meta.Columns) {
			return fmt.Errorf("minidb: Load into %s: row %v has %d columns, want %d", table, row, len(row), len(ts.meta.Columns))
		}
		if slices.ContainsFunc(ts.indexes[0].cols, func(c int) bool { return row[c].Null }) {
			return fmt.Errorf("minidb: NULL primary key in Load into %s", table)
		}
		for _, ix := range ts.indexes {
			buf = ix.appendKey(buf[:0], row)
			keys = append(keys, string(buf))
			if pfx, live, tomb := ix.probe(row, keys[len(keys)-1]); pfx != "" {
				if live+tomb != "" || seen[taken{ix.Name, pfx}] {
					return fmt.Errorf("%w: Load into %s: %s of %v", ErrDuplicateKey, table, ix.Name, row)
				}
				seen[taken{ix.Name, pfx}] = true
			}
		}
	}
	for r, row := range rows {
		buf = appendEntry(buf[:0], row)
		ts.indexes[0].entries.Put(keys[r*n], buf)
		for i, ix := range ts.indexes[1:] {
			ix.entries.Put(keys[r*n+1+i], []byte{liveEntry})
		}
	}
	return nil
}

// StatsSnapshot returns current counters.
func (db *DB) StatsSnapshot() Stats {
	return Stats{
		Commits:    db.commits.Load(),
		Aborts:     db.aborts.Load(),
		Deadlocks:  db.lm.deadlocks.Load(),
		LockWaits:  db.lm.waits.Load(),
		Statements: db.statements.Load(),
	}
}

// DeadlockVictimsByTable returns the cumulative deadlock-victim counts
// keyed by the table of the lock the victim was requesting when it was
// chosen. The fixgain experiment diffs snapshots around a workload run
// to attribute aborts to the planted (or fixed) tables.
func (db *DB) DeadlockVictimsByTable() map[string]int64 {
	db.lm.mu.Lock()
	defer db.lm.mu.Unlock()
	out := make(map[string]int64, len(db.lm.deadlocksBy))
	for t, n := range db.lm.deadlocksBy {
		out[t] = n
	}
	return out
}

// table returns the store for a table name.
func (db *DB) table(name string) *tableStore {
	ts, ok := db.tables[name]
	if !ok {
		panic("minidb: unknown table " + name)
	}
	return ts
}

// TableRows returns a snapshot of every row of a table in primary-key
// order — a debugging and fixture-verification aid, not part of the
// transactional path.
func (db *DB) TableRows(name string) []Row {
	db.latch.Lock()
	defer db.latch.Unlock()
	var out []Row
	db.table(name).indexes[0].entries.AscendAll(func(_, v string) bool {
		if !deleted(v) {
			out = append(out, db.decodeRow(nil, v[1:]))
		}
		return true
	})
	return out
}

// maxRats caps DB.rats, which would otherwise keep every decimal ever seen.
const maxRats = 4096

// decodeRow decodes a stored row (or a key, its NULLs kindless) into dst's
// storage: a string cell is a substring of row, a decimal cell an interned
// Rat. Caller holds latch.
func (db *DB) decodeRow(dst Row, row string) Row {
	dst = dst[:0]
	for row != "" {
		tag, val, rest := nextField(row)
		d := NullDatum(Kind(strings.IndexByte("irs", tag)))
		switch tag {
		case 'I':
			d = I64(fieldInt(val))
		case 'S':
			d = Str(val)
		case 'R':
			r := db.rats[val]
			if r == nil {
				if len(db.rats) >= maxRats {
					clear(db.rats) // datums keep their own pointers
				}
				r = fieldRat(tag, val)
				db.rats[strings.Clone(val)] = r
			}
			d = Real(r)
		}
		dst, row = append(dst, d), rest
	}
	return dst
}
