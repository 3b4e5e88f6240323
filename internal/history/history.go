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
// truncation) is the single source of truth, and the in-memory B-tree
// indexes — events by fingerprint, plus incrementally maintained
// per-table / per-class / per-API-pair pattern rollups — are rebuilt by
// replaying it, so live state and reloaded state are identical by
// construction. Ingest is idempotent by fingerprint: re-ingesting a
// corpus appends lightweight "touch" records (last-seen, sighting
// counts) instead of duplicating events.
package history

import (
	"errors"
	"fmt"
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
	mu        sync.RWMutex
	log       *btree.Log
	events    *btree.Map[string, *Event] // fingerprint → event
	tables    *btree.Map[string, *Rollup]
	classes   *btree.Map[string, *Rollup]
	pairs     *btree.Map[string, *Rollup]
	strs      map[string]string // the decoder's shared strings, all held by events
	sightings int
	version   atomic.Uint64 // records applied; written under mu, read without it
	// firstSeen is the earliest FirstSeen (or LastSeen, if earlier) of any
	// stored event: no event is last seen before it, as LastSeen only grows.
	firstSeen time.Time
	now       func() time.Time
}

// StoreOption configures Open.
type StoreOption func(*Store)

// WithClock overrides the store's time source (tests pin timestamps so
// reloaded state is byte-comparable against golden output).
func WithClock(now func() time.Time) StoreOption {
	return func(s *Store) { s.now = now }
}

// Open opens (creating if absent) the store at path, replaying the
// record log to rebuild the event index and pattern rollups. A torn
// final record from a crash mid-append is dropped and truncated away.
func Open(path string, opts ...StoreOption) (*Store, error) {
	s := &Store{
		events:  btree.New[string, *Event](strings.Compare),
		tables:  btree.New[string, *Rollup](strings.Compare),
		classes: btree.New[string, *Rollup](strings.Compare),
		pairs:   btree.New[string, *Rollup](strings.Compare),
		strs:    map[string]string{},
		now:     time.Now,
	}
	for _, opt := range opts {
		opt(s)
	}
	log, err := btree.OpenLog(path, s.applyPayload)
	if err != nil {
		return nil, err
	}
	s.log = log
	return s, nil
}

// applyPayload decodes one log payload and folds it into the in-memory
// state. It is the only way state changes: replay calls it on every frame
// it reads, Ingest on every payload it has just appended, so a reopened
// store is state-identical to the one that wrote the log and no stored
// event shares memory with an Ingest caller.
func (s *Store) applyPayload(raw []byte) error {
	rec, err := decodeRecord(raw, s.strs)
	if err != nil {
		return err
	}
	return s.apply(rec)
}

// apply folds one decoded record into the in-memory state.
func (s *Store) apply(rec record) error {
	switch rec.kind {
	case recEvent:
		e := rec.e
		if e == nil || e.Fingerprint == "" {
			return fmt.Errorf("history: event record without fingerprint")
		}
		if prev, ok := s.events.Get(e.Fingerprint); ok {
			// A duplicate event record only arises from a log written by
			// a racing writer; fold it as a touch rather than corrupting
			// the rollups.
			return s.apply(record{kind: recTouch, fp: prev.Fingerprint, at: e.LastSeen})
		}
		lo := e.FirstSeen
		if e.LastSeen.Before(lo) {
			lo = e.LastSeen
		}
		if s.events.Len() == 0 || lo.Before(s.firstSeen) {
			s.firstSeen = lo
		}
		s.events.Set(e.Fingerprint, e)
		s.sightings += e.Seen
		s.bumpRollups(e, true)
		s.version.Add(1)
		return nil
	case recTouch:
		e, ok := s.events.Get(rec.fp)
		if !ok {
			return fmt.Errorf("history: touch of unknown fingerprint %s", rec.fp)
		}
		e.Seen++
		if rec.at.After(e.LastSeen) {
			e.LastSeen = rec.at
		}
		s.sightings++
		s.bumpRollups(e, false)
		s.version.Add(1)
		return nil
	default:
		return fmt.Errorf("history: unknown record kind %d", rec.kind)
	}
}

// bumpRollups folds a new event, or a new sighting of a known one, into
// every rollup it belongs to.
func (s *Store) bumpRollups(e *Event, newEvent bool) {
	for _, t := range e.Tables {
		bump(s.tables, t, e, newEvent)
	}
	if e.Class != "" {
		bump(s.classes, e.Class, e, newEvent)
	}
	bump(s.pairs, PairKey(e.APIs[0], e.APIs[1]), e, newEvent)
}

// bump maintains one rollup map for an applied record.
func bump(m *btree.Map[string, *Rollup], key string, e *Event, newEvent bool) {
	r, ok := m.Get(key)
	if !ok {
		r = &Rollup{Key: key, FirstSeen: e.FirstSeen, LastSeen: e.LastSeen}
		m.Set(key, r)
	}
	if newEvent {
		r.Events++
		r.Seen += e.Seen
	} else {
		r.Seen++
	}
	if e.FirstSeen.Before(r.FirstSeen) {
		r.FirstSeen = e.FirstSeen
	}
	if e.LastSeen.After(r.LastSeen) {
		r.LastSeen = e.LastSeen
	}
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
// what the store holds is decoded from the bytes it appended.
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
	var buf []byte
	var tables []string
	// encode renders event i's record — a touch when the store knows the
	// fingerprint — into buf.
	encode := func(i int) (known bool) {
		var rec record
		if _, known = s.events.Get(events[i].Fingerprint); known {
			rec = record{kind: recTouch, fp: events[i].Fingerprint, at: now}
		} else {
			e := events[i] // shallow copy: Tables is replaced, never written through
			tables = normTables(tables, e.Tables)
			e.Tables = tables
			if e.Count <= 0 {
				e.Count = 1
			}
			e.Seen, e.FirstSeen, e.LastSeen = 1, now, now
			rec = record{kind: recEvent, e: &e}
		}
		buf = appendRecord(buf[:0], rec)
		return known
	}
	// Size every record against the store as it stands (a fingerprint
	// repeated within the batch counts in its larger, event form), so a
	// refused batch leaves nothing behind.
	for i := range events {
		if encode(i); len(buf) > maxRecord {
			return sum, fmt.Errorf("%w: event %d (%s) encodes to %d bytes, limit %d",
				btree.ErrRecordTooLarge, i, events[i].Fingerprint, len(buf), maxRecord)
		}
	}
	for i := range events {
		if encode(i) {
			sum.Deduped++
		} else {
			sum.Stored++
		}
		if err := s.log.Append(buf); err != nil {
			return sum, err
		}
		if err := s.applyPayload(buf); err != nil {
			return sum, err
		}
	}
	sum.Events = s.events.Len()
	return sum, s.log.Sync()
}

// EventQuery filters Events. Zero values match everything.
type EventQuery struct {
	Table string    // involves this table
	Class string    // exact anti-pattern class
	API   string    // either side of the pair
	Since time.Time // last seen at or after
	Limit int       // 0 = unlimited
}

func (q EventQuery) match(e *Event) bool {
	if q.Table != "" {
		ok := false
		for _, t := range e.Tables {
			if t == q.Table {
				ok = true
			}
		}
		if !ok {
			return false
		}
	}
	if q.Class != "" && e.Class != q.Class {
		return false
	}
	if q.API != "" && e.APIs[0] != q.API && e.APIs[1] != q.API {
		return false
	}
	if !q.Since.IsZero() && e.LastSeen.Before(q.Since) {
		return false
	}
	return true
}

// Events returns matching events in fingerprint order (deterministic
// across processes and reloads). The returned events are the caller's:
// each carries its own copy of Tables, the one field that is a slice.
func (s *Store) Events(q EventQuery) []Event {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Event
	s.events.AscendAll(func(_ string, e *Event) bool {
		if q.match(e) {
			c := *e
			c.Tables = slices.Clone(e.Tables)
			out = append(out, c)
		}
		return q.Limit == 0 || len(out) < q.Limit
	})
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

func collect(m *btree.Map[string, *Rollup]) []Rollup {
	out := make([]Rollup, 0, m.Len())
	m.AscendAll(func(_ string, r *Rollup) bool {
		out = append(out, *r)
		return true
	})
	return out
}

// Patterns returns the rollup summary.
func (s *Store) Patterns() PatternSummary {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return PatternSummary{
		Events:    s.events.Len(),
		Sightings: s.sightings,
		Tables:    collect(s.tables),
		Classes:   collect(s.classes),
		Pairs:     collect(s.pairs),
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
// grouped per table, most-deadlocking first (ties by name). A window
// holding every event is the tables rollup; a younger one scans events.
func (s *Store) TableCounts(since time.Time) []TableCount {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []TableCount
	if since.IsZero() || !since.After(s.firstSeen) {
		out = make([]TableCount, 0, s.tables.Len())
		s.tables.AscendAll(func(t string, r *Rollup) bool {
			out = append(out, TableCount{Table: t, Events: r.Events, Seen: r.Seen})
			return true
		})
	} else {
		acc := map[string]*TableCount{}
		s.events.AscendAll(func(_ string, e *Event) bool {
			if e.LastSeen.Before(since) {
				return true
			}
			for _, t := range e.Tables {
				c, ok := acc[t]
				if !ok {
					c = &TableCount{Table: t}
					acc[t] = c
				}
				c.Events++
				c.Seen += e.Seen
			}
			return true
		})
		out = make([]TableCount, 0, len(acc))
		for _, c := range acc {
			out = append(out, *c)
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
	return s.events.Len()
}

// Sightings returns the total number of applied sightings.
func (s *Store) Sightings() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sightings
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
		c := d.Cycle
		e := Event{
			Fingerprint: fp,
			App:         app,
			Class:       class,
			APIs:        d.APIs,
			Tables:      []string{c.Table1, c.Table2},
			Count:       d.Count,
		}
		if c.S1a != nil && c.S1b != nil {
			e.Txns[0] = TxnLock{
				API:      d.APIs[0],
				HoldsSQL: c.S1a.SQL, HoldsAt: locOf(c.S1a),
				WaitsSQL: c.S1b.SQL, WaitsAt: locOf(c.S1b),
			}
		}
		if c.S2a != nil && c.S2b != nil {
			e.Txns[1] = TxnLock{
				API:      d.APIs[1],
				HoldsSQL: c.S2a.SQL, HoldsAt: locOf(c.S2a),
				WaitsSQL: c.S2b.SQL, WaitsAt: locOf(c.S2b),
			}
		}
		byFP[fp] = len(out)
		out = append(out, e)
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
