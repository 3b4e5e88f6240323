// Package history is WeSEER's persistent deadlock-history store — the
// piece that turns the one-shot detector into an ongoing production
// service (the Steep deadlock-history design): deadlocks are rare,
// serious incidents worth persisting, and the questions that matter —
// "which tables deadlock most?", "is this incident new or the same one
// we saw Tuesday?" — span days of history and many ingests.
//
// Every diagnosed deadlock becomes a fingerprinted DeadlockEvent (the
// stable core.Deadlock fingerprint: canonical cycle, sorted table
// resources, API pair), carrying per-transaction lock records (what each
// side held, where it waited, which code triggered it). The store is an
// embedded, stdlib-only append-only event store over internal/btree: a
// WAL-style record log (btree.Log, crash-safe reload with torn-tail
// truncation; strings written once, in a dictionary; rewritten whole only
// when Ingest compacts it) is the single source of truth, and the
// in-memory indexes — a map of events by fingerprint, plus incrementally
// maintained per-table / per-class / per-API-pair pattern rollups — are
// rebuilt by replaying it, so live state and reloaded state are identical
// by construction. Ingest is idempotent by fingerprint: re-ingesting a
// corpus appends lightweight "touch" records (last-seen, sighting
// counts) instead of duplicating events.
package history

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"weseer/internal/btree"
	"weseer/internal/core"
	"weseer/internal/trace"
)

// TxnLock is one transaction's side of a deadlock cycle: the lock it
// holds (statement template plus triggering code location) and the
// statement it waits at.
type TxnLock struct {
	API      string `json:"api"`
	HoldsSQL string `json:"holds_sql,omitempty"`
	HoldsAt  string `json:"holds_at,omitempty"` // file:line of the triggering code
	WaitsSQL string `json:"waits_sql,omitempty"`
	WaitsAt  string `json:"waits_at,omitempty"`
}

// Event is one fingerprinted deadlock incident. Identity is the
// fingerprint; everything else is descriptive. First/LastSeen and Seen
// accumulate across ingests of the same fingerprint.
type Event struct {
	Fingerprint string     `json:"fingerprint"`
	App         string     `json:"app,omitempty"`   // workload the traces came from
	Class       string     `json:"class,omitempty"` // anti-pattern class (Table II id, planted f-class)
	APIs        [2]string  `json:"apis"`
	Tables      []string   `json:"tables"` // sorted unique lock resources
	Txns        [2]TxnLock `json:"txns"`
	Count       int        `json:"count"` // coarse cycles folded into the diagnosis
	Seen        int        `json:"seen"`  // ingests that sighted this fingerprint
	FirstSeen   time.Time  `json:"first_seen"`
	LastSeen    time.Time  `json:"last_seen"`
}

// PairKey is the canonical API-pair rollup key.
func PairKey(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + " -- " + b
}

// Rollup is one pre-computed pattern aggregate: how many distinct
// events (fingerprints) and total sightings a key has accumulated, and
// when. Maintained incrementally on every applied record, so pattern
// queries never scan the event list.
type Rollup struct {
	Key       string    `json:"key"`
	Events    int       `json:"events"`
	Seen      int       `json:"seen"`
	FirstSeen time.Time `json:"first_seen"`
	LastSeen  time.Time `json:"last_seen"`
}

// IngestSummary reports one Ingest call's outcome.
type IngestSummary struct {
	Received int `json:"received"` // events in the batch
	Stored   int `json:"stored"`   // new fingerprints appended
	Deduped  int `json:"deduped"`  // fingerprints already present (touched)
	Events   int `json:"events"`   // store size after the batch
}

// ErrInvalidEvent is wrapped by Ingest's error when the batch holds an
// event the store cannot take; nothing of such a batch is stored.
var ErrInvalidEvent = errors.New("history: invalid event")

// Store is the embedded deadlock-history store. Safe for concurrent
// use; queries take a read lock, ingest a write lock.
type Store struct {
	mu     sync.RWMutex
	path   string
	log    *btree.Log
	events map[string]*entry // fingerprint → event
	// byOrd holds the event records in log order: a touch's ordinal
	// indexes it. Scans range over it rather than the map, three times
	// faster in its allocation order, and skip a duplicate record (one
	// whose ord is not its index).
	byOrd []*entry
	// byTable lists, by a table's dictionary id, the ordinals of the events
	// naming it, each once, in log order: a table= query walks its list,
	// not byOrd. Ordinals, not pointers, so the collector never scans it.
	byTable   [][]int32
	dict      []string           // dictionary id → string; dict[0] is ""
	ids       map[string]uint32  // string → dictionary id, for encoding and queries
	tables    []*Rollup          // by the table's dictionary id
	classes   []*Rollup          // by the class's dictionary id
	pairs     map[uint64]*Rollup // by the pair's ids, lower first
	touches   int                // touch records applied
	buf       []byte             // encode's buffer
	tableIDs  []uint32           // entryOf's buffer
	sightings int
	version   atomic.Uint64 // records applied; written under mu, read without it
	// firstSeen is the earliest FirstSeen (or LastSeen, if earlier) of any
	// stored event: no event is last seen before it, as LastSeen only grows.
	firstSeen time.Time
	now       func() time.Time
}

// replayBatch is how many decoded records Open hands its applying
// goroutine at a time.
const replayBatch = 1024

func newStore() *Store {
	return &Store{
		events: map[string]*entry{},
		dict:   []string{""},
		ids:    map[string]uint32{"": 0},
		tables: []*Rollup{nil}, classes: []*Rollup{nil}, byTable: [][]int32{nil},
		pairs: map[uint64]*Rollup{},
		now:   time.Now,
	}
}

// Open opens (creating if absent) the store at path, replaying the
// record log to rebuild the event index and pattern rollups: the log's
// reader decodes each record while a second goroutine applies the ones
// before it in log order. A torn final record from a crash mid-append is
// dropped and truncated away. A file that is not a log of this format
// fails Open with a *btree.FormatError, and the first record that fails
// to decode or apply fails it named by its offset; either way the file is
// left as it was.
func Open(path string) (*Store, error) {
	s := newStore()
	type frame struct {
		off int64
		rec record
	}
	var batch, spare []frame
	work, exited := make(chan []frame), make(chan struct{})
	var failed error // the first apply error, a *btree.FrameError; read once exited is closed
	go func(work <-chan []frame) {
		defer close(exited)
		for b := range work {
			for i := 0; i < len(b) && failed == nil; i++ { // after a failure, only drain
				if err := s.apply(b[i].rec); err != nil {
					failed = &btree.FrameError{Off: b[i].off, Err: err}
				}
			}
		}
	}(work)
	// finish hands over the last batch and waits for the applier to exit;
	// later calls only repeat its verdict.
	finish := func() error {
		if work != nil {
			work <- batch
			close(work)
			<-exited
			work = nil
		}
		return failed
	}
	log, err := btree.OpenLogFrames(path, func(off int64, raw []byte) error {
		rec, err := decodeRecord(raw)
		if err != nil {
			if ferr := finish(); ferr != nil {
				return ferr // a record before this one failed to apply
			}
			return err
		}
		if batch = append(batch, frame{off, rec}); len(batch) == replayBatch {
			work <- batch // taken: the applier is done with the batch before it
			batch, spare = spare[:0], batch
		}
		return nil
	}, finish)
	if err != nil {
		_ = finish() // stops the applier if the open failed before replay ended; err is the verdict
		return nil, err
	}
	s.path, s.log = path, log
	return s, nil
}

// compact rewrites the log from memory (btree.Rewrite) and goes on
// appending to the new one, whose event records are the store's events in
// log order, each once: the ordinals of byOrd and byTable are renumbered
// past any duplicate event record the old log held. What the store
// answers does not change, and neither does its version.
func (s *Store) compact() error {
	l, err := btree.Rewrite(s.path, s.writeSnapshot)
	if l == nil {
		return err
	}
	s.log.Close() // the replaced file: every record of it is in l
	s.log, s.touches = l, 0
	if len(s.byOrd) > len(s.events) {
		ords := make([]int32, len(s.byOrd)) // old ordinal → new
		kept := s.byOrd[:0]
		for i, e := range s.byOrd {
			if e.ord == i { // a duplicate's entry is renumbered already, to below i
				ords[i], e.ord = int32(len(kept)), len(kept)
				kept = append(kept, e)
			}
		}
		s.byOrd = kept
		for _, list := range s.byTable {
			for j, ord := range list {
				list[j] = ords[ord]
			}
		}
	}
	return err
}

// writeSnapshot appends the store's state to l: the dictionary, then one
// event record per event in log order, its touches folded into its seen
// and last-seen fields.
func (s *Store) writeSnapshot(l *btree.Log) error {
	for _, str := range s.dict[1:] {
		if err := l.Append(s.encode(record{kind: recDef, def: str})); err != nil {
			return err
		}
	}
	for i, e := range s.byOrd {
		if e.ord != i {
			continue // a duplicate event record, folded into the first
		}
		if err := l.Append(s.encode(record{kind: recEvent, e: e})); err != nil {
			return err
		}
	}
	return nil
}

// encode renders rec into the store's buffer, valid until the next call.
func (s *Store) encode(rec record) []byte {
	s.buf = appendRecord(s.buf[:0], rec)
	return s.buf
}

// applyPayload decodes one log payload and folds it into the in-memory
// state. Ingest calls it on every payload it has just appended, and Open
// runs its two halves on every frame it reads, so a reopened store is
// state-identical to the one that wrote the log and no stored event shares
// memory with an Ingest caller.
func (s *Store) applyPayload(raw []byte) error {
	rec, err := decodeRecord(raw)
	if err != nil {
		return err
	}
	return s.apply(rec)
}

// apply folds one decoded record into the in-memory state.
func (s *Store) apply(rec record) error {
	switch rec.kind {
	case recDef:
		if _, dup := s.ids[rec.def]; dup {
			return fmt.Errorf("history: def of %q, which the dictionary holds", rec.def)
		}
		s.ids[rec.def] = uint32(len(s.dict))
		s.dict = append(s.dict, rec.def)
		s.tables, s.classes, s.byTable = append(s.tables, nil), append(s.classes, nil), append(s.byTable, nil)
	case recEvent:
		e := rec.e
		if e.fp == "" {
			return fmt.Errorf("history: event record without fingerprint")
		}
		top := slices.Max(e.ids[:])
		if len(e.tables) > 0 {
			top = max(top, slices.Max(e.tables))
		}
		if int(top) >= len(s.dict) {
			return fmt.Errorf("history: event %s names string %d of a %d-string dictionary", e.fp, top, len(s.dict))
		}
		if prev, ok := s.events[e.fp]; ok {
			// A duplicate event record only arises from a log written by
			// a racing writer; fold it as a touch rather than corrupting
			// the rollups.
			s.byOrd = append(s.byOrd, prev)
			s.touch(prev, e.last)
			break
		}
		lo := e.first
		if e.last.Before(lo) {
			lo = e.last
		}
		if len(s.events) == 0 || lo.Before(s.firstSeen) {
			s.firstSeen = lo
		}
		e.ord = len(s.byOrd)
		s.byOrd = append(s.byOrd, e)
		for _, t := range e.tables {
			if l := s.byTable[t]; len(l) == 0 || l[len(l)-1] != int32(e.ord) { // a table named twice
				s.byTable[t] = append(l, int32(e.ord))
			}
		}
		s.events[e.fp] = e
		s.sightings += e.seen
		s.bumpRollups(e, true)
	case recTouch:
		if rec.ord >= uint64(len(s.byOrd)) {
			return fmt.Errorf("history: touch of event %d, %d read", rec.ord, len(s.byOrd))
		}
		s.touches++
		s.touch(s.byOrd[rec.ord], rec.at)
	default:
		return fmt.Errorf("history: unknown record kind %d", rec.kind)
	}
	s.version.Add(1)
	return nil
}

// touch folds a new sighting at time at into e.
func (s *Store) touch(e *entry, at time.Time) {
	e.seen++
	if at.After(e.last) {
		e.last = at
	}
	s.sightings++
	s.bumpRollups(e, false)
}

// bumpRollups folds a new event, or a new sighting of a known one, into
// every rollup it belongs to.
func (s *Store) bumpRollups(e *entry, newEvent bool) {
	for _, t := range e.tables {
		s.rollup(s.tables, t, e).bump(e, newEvent)
	}
	if c := e.ids[idClass]; c != 0 {
		s.rollup(s.classes, c, e).bump(e, newEvent)
	}
	a, b := e.ids[idAPI0], e.ids[idAPI1]
	if b < a {
		a, b = b, a
	}
	r := s.pairs[uint64(a)<<32|uint64(b)]
	if r == nil {
		r = &Rollup{Key: PairKey(s.dict[a], s.dict[b]), FirstSeen: e.first, LastSeen: e.last}
		s.pairs[uint64(a)<<32|uint64(b)] = r
	}
	r.bump(e, newEvent)
}

// rollup returns rs[id], starting it at e's times when there is none.
func (s *Store) rollup(rs []*Rollup, id uint32, e *entry) *Rollup {
	if rs[id] == nil {
		rs[id] = &Rollup{Key: s.dict[id], FirstSeen: e.first, LastSeen: e.last}
	}
	return rs[id]
}

// bump folds a new event, or a new sighting of a known one, into r.
func (r *Rollup) bump(e *entry, newEvent bool) {
	if newEvent {
		r.Events++
		r.Seen += e.seen
	} else {
		r.Seen++
	}
	if e.first.Before(r.FirstSeen) {
		r.FirstSeen = e.first
	}
	if e.last.After(r.LastSeen) {
		r.LastSeen = e.last
	}
}

// eventFields lists e's dictionary strings in entry.ids order.
func eventFields(e *Event) [numIDs]*string {
	t0, t1 := &e.Txns[0], &e.Txns[1]
	return [...]*string{&e.App, &e.Class, &e.APIs[0], &e.APIs[1], &t0.API, &t0.HoldsSQL,
		&t0.HoldsAt, &t0.WaitsSQL, &t0.WaitsAt, &t1.API, &t1.HoldsSQL, &t1.HoldsAt, &t1.WaitsSQL, &t1.WaitsAt}
}

// entryOf builds e's entry to encode, taking each string's dictionary id
// from id; its tables are the store's scratch, valid until the next call.
func (s *Store) entryOf(e *Event, id func(string) uint32) entry {
	en := entry{fp: e.Fingerprint, count: e.Count, seen: e.Seen, first: e.FirstSeen, last: e.LastSeen}
	for i, p := range eventFields(e) {
		en.ids[i] = id(*p)
	}
	for _, t := range e.Tables {
		s.tableIDs = append(s.tableIDs, id(t))
	}
	en.tables, s.tableIDs = s.tableIDs, s.tableIDs[:0]
	return en
}

// event returns e as the caller's Event.
func (s *Store) event(e *entry) Event {
	out := Event{Fingerprint: e.fp, Count: e.count, Seen: e.seen, FirstSeen: e.first, LastSeen: e.last}
	for i, p := range eventFields(&out) {
		*p = s.dict[e.ids[i]]
	}
	if len(e.tables) > 0 {
		out.Tables = make([]string, len(e.tables))
		for i, id := range e.tables {
			out.Tables[i] = s.dict[id]
		}
	}
	return out
}

// emitEvent hands emit a def record for each string of e the dictionary
// lacks, then e's event record. An emit that applies what it is handed
// defines a string e repeats once; one that does not (a dry run that
// measures) gets every new string at the largest id.
func (s *Store) emitEvent(e *Event, emit func([]byte) error) error {
	var err error
	en := s.entryOf(e, func(str string) uint32 {
		if _, ok := s.ids[str]; !ok && err == nil {
			err = emit(s.encode(record{kind: recDef, def: str}))
		}
		if id, ok := s.ids[str]; ok {
			return id
		}
		return math.MaxUint32
	})
	if err != nil {
		return err
	}
	return emit(s.encode(record{kind: recEvent, e: &en}))
}

// normTables copies an event's lock resources into scratch in stored
// form: sorted, unique, no empty names.
func normTables(scratch, tables []string) []string {
	scratch = append(scratch[:0], tables...)
	sort.Strings(scratch)
	out := scratch[:0]
	for _, t := range scratch {
		if t != "" && (len(out) == 0 || out[len(out)-1] != t) {
			out = append(out, t)
		}
	}
	return out
}

// maxRecord is the log's record limit; a variable so tests can lower it.
var maxRecord = btree.MaxLogRecord

// Ingest applies a batch of events idempotently by fingerprint: unknown
// fingerprints are appended as full events, known ones as touch
// records. One fsync per batch. An event without a fingerprint fails the
// whole batch with ErrInvalidEvent, and one whose record would pass the
// log's size limit with btree.ErrRecordTooLarge, before anything is
// written. Ingest neither modifies events nor keeps a reference into it:
// what the store holds is decoded from the bytes it appended. When the
// log's touch records then outnumber its event records, Ingest compacts
// it; an error of the compaction comes with the summary of a stored batch.
func (s *Store) Ingest(events []Event) (IngestSummary, error) {
	sum := IngestSummary{Received: len(events)}
	for i := range events {
		if events[i].Fingerprint == "" {
			return sum, fmt.Errorf("%w: event %d has no fingerprint (APIs %v)", ErrInvalidEvent, i, events[i].APIs)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now().UTC()
	var tables []string
	// stamp returns event i as the store keeps a new fingerprint.
	stamp := func(i int) Event {
		e := events[i] // shallow copy: Tables is replaced, never written through
		tables = normTables(tables, e.Tables)
		e.Tables = tables
		if e.Count <= 0 {
			e.Count = 1
		}
		e.Seen, e.FirstSeen, e.LastSeen = 1, now, now
		return e
	}
	// Size every record against the store as it stands (a fingerprint
	// repeated within the batch counts in its larger, event form), so a
	// refused batch leaves nothing behind.
	for i := range events {
		if _, known := s.events[events[i].Fingerprint]; known {
			continue // a touch is a few bytes
		}
		longest, e := 0, stamp(i)
		_ = s.emitEvent(&e, func(p []byte) error { longest = max(longest, len(p)); return nil }) // a dry run: no error
		if longest > maxRecord {
			return sum, fmt.Errorf("%w: event %d (%s) encodes to %d bytes, limit %d",
				btree.ErrRecordTooLarge, i, events[i].Fingerprint, longest, maxRecord)
		}
	}
	write := func(payload []byte) error {
		if err := s.log.Append(payload); err != nil {
			return err
		}
		return s.applyPayload(payload)
	}
	for i := range events {
		var err error
		if e, known := s.events[events[i].Fingerprint]; known {
			sum.Deduped++
			err = write(s.encode(record{kind: recTouch, ord: uint64(e.ord), at: now}))
		} else {
			sum.Stored++
			e := stamp(i)
			err = s.emitEvent(&e, write)
		}
		if err != nil {
			return sum, err
		}
	}
	sum.Events = len(s.events)
	if err := s.log.Sync(); err != nil {
		return sum, err
	}
	if s.touches > len(s.byOrd) {
		return sum, s.compact()
	}
	return sum, nil
}

// EventQuery filters Events. Zero values match everything.
type EventQuery struct {
	Table string    // involves this table
	Class string    // exact anti-pattern class
	API   string    // either side of the pair
	Since time.Time // last seen at or after
	Limit int       // 0 = unlimited
}

// match reports whether e passes q, whose Table, Class and API are
// resolved to their dictionary ids (0 for no filter).
func (q EventQuery) match(e *entry, table, class, api uint32) bool {
	switch {
	case table != 0 && !slices.Contains(e.tables, table),
		class != 0 && e.ids[idClass] != class,
		api != 0 && e.ids[idAPI0] != api && e.ids[idAPI1] != api:
		return false
	}
	return q.Since.IsZero() || !e.last.Before(q.Since)
}

// Events returns matching events in fingerprint order (deterministic
// across processes and reloads), at most q.Limit of them, never nil. The
// returned events are the caller's.
func (s *Store) Events(q EventQuery) []Event {
	s.mu.RLock()
	defer s.mu.RUnlock()
	table, ok1 := s.ids[q.Table]
	class, ok2 := s.ids[q.Class]
	api, ok3 := s.ids[q.API]
	if !ok1 || !ok2 || !ok3 {
		return []Event{} // a name no event holds
	}
	var hits []*entry
	if table != 0 {
		for _, ord := range s.byTable[table] {
			if e := s.byOrd[ord]; q.match(e, table, class, api) {
				hits = append(hits, e)
			}
		}
	} else {
		for i, e := range s.byOrd {
			if e.ord == i && q.match(e, table, class, api) {
				hits = append(hits, e)
			}
		}
	}
	slices.SortFunc(hits, func(a, b *entry) int { return strings.Compare(a.fp, b.fp) })
	if q.Limit > 0 && len(hits) > q.Limit {
		hits = hits[:q.Limit]
	}
	out := make([]Event, len(hits))
	for i, e := range hits {
		out[i] = s.event(e)
	}
	return out
}

// PatternSummary is the pre-computed rollup view: the store's totals
// and the per-table / per-class / per-API-pair aggregates, each in key
// order.
type PatternSummary struct {
	Events    int      `json:"events"`    // distinct fingerprints
	Sightings int      `json:"sightings"` // events + touches ever applied
	Tables    []Rollup `json:"tables"`
	Classes   []Rollup `json:"classes"`
	Pairs     []Rollup `json:"pairs"`
}

// collect returns the rollups in key order.
func collect(rs []*Rollup) []Rollup {
	out := []Rollup{}
	for _, r := range rs {
		if r != nil {
			out = append(out, *r)
		}
	}
	slices.SortFunc(out, func(a, b Rollup) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// Patterns returns the rollup summary.
func (s *Store) Patterns() PatternSummary {
	s.mu.RLock()
	defer s.mu.RUnlock()
	pairs := make([]*Rollup, 0, len(s.pairs))
	for _, r := range s.pairs {
		pairs = append(pairs, r)
	}
	return PatternSummary{
		Events:    len(s.events),
		Sightings: s.sightings,
		Tables:    collect(s.tables),
		Classes:   collect(s.classes),
		Pairs:     collect(pairs),
	}
}

// TableCount is one table's windowed trend entry.
type TableCount struct {
	Table  string `json:"table"`
	Events int    `json:"events"` // distinct fingerprints last seen in the window
	Seen   int    `json:"seen"`   // their total sighting counts
}

// TableCounts answers "which tables deadlock most?" over a trailing
// window: events last seen at or after since (zero = all history),
// grouped per table, most-deadlocking first (ties by name), never nil. A
// window holding every event is the tables rollup; a younger one scans
// events.
func (s *Store) TableCounts(since time.Time) []TableCount {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := []TableCount{}
	if since.IsZero() || !since.After(s.firstSeen) {
		for _, r := range s.tables {
			if r != nil {
				out = append(out, TableCount{Table: r.Key, Events: r.Events, Seen: r.Seen})
			}
		}
	} else {
		acc := make([]TableCount, len(s.dict)) // by the table's dictionary id
		for i, e := range s.byOrd {
			if e.ord == i && !e.last.Before(since) {
				for _, t := range e.tables {
					acc[t].Events++
					acc[t].Seen += e.seen
				}
			}
		}
		for id, c := range acc {
			if c.Events > 0 {
				c.Table = s.dict[id]
				out = append(out, c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Events != out[j].Events {
			return out[i].Events > out[j].Events
		}
		return out[i].Table < out[j].Table
	})
	return out
}

// Len returns the number of stored events (distinct fingerprints).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.events)
}

// Size returns the backing log's on-disk size in bytes.
func (s *Store) Size() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.log.Size()
}

// Close syncs and closes the backing log.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}

// FromResult converts a diagnosis result into history events, one per
// distinct fingerprint: duplicate-fingerprint reports fold together
// (their folded-cycle counts sum). classify maps each deadlock onto the
// app's catalog ("" = unclassified, stored classless); app names the
// workload. Events carry no timestamps — the store stamps them at
// ingest.
func FromResult(res *core.Result, app string, classify func(*core.Deadlock) string) []Event {
	byFP := map[string]int{}
	var out []Event
	for _, d := range res.Deadlocks {
		fp := d.Fingerprint()
		if i, ok := byFP[fp]; ok {
			out[i].Count += d.Count
			continue
		}
		var class string
		if classify != nil {
			class = classify(d)
		}
		out = append(out, Event{
			Fingerprint: fp,
			App:         app,
			Class:       class,
			APIs:        d.APIs,
			Tables:      []string{d.Cycle.Table1, d.Cycle.Table2},
			Txns:        Txns(d),
			Count:       d.Count,
		})
		byFP[fp] = len(out) - 1
	}
	return out
}

// Txns returns each transaction's side of d's cycle: the statement
// whose lock it holds and the one it waits at, each with its triggering
// code location. A side whose statements the cycle lacks is zero.
func Txns(d *core.Deadlock) [2]TxnLock {
	var out [2]TxnLock
	c := d.Cycle
	for i, s := range [2][2]*trace.Stmt{{c.S1a, c.S1b}, {c.S2a, c.S2b}} {
		if s[0] != nil && s[1] != nil {
			out[i] = TxnLock{API: d.APIs[i], HoldsSQL: s[0].SQL, HoldsAt: locOf(s[0]), WaitsSQL: s[1].SQL, WaitsAt: locOf(s[1])}
		}
	}
	return out
}

// locOf renders a statement's triggering code location as file:line
// ("" when the trace carried no stack).
func locOf(s *trace.Stmt) string {
	top := s.Trigger.Top()
	if top.File == "" {
		return ""
	}
	return fmt.Sprintf("%s:%d", top.File, top.Line)
}
