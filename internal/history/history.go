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
// truncation) is the single source of truth, and the in-memory indexes —
// a B-tree of events by fingerprint, plus incrementally maintained
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
func PairKey(a, b string) string { return string(appendPairKey(nil, a, b)) }

func appendPairKey(dst []byte, a, b string) []byte {
	if b < a {
		a, b = b, a
	}
	return append(append(append(dst, a...), " -- "...), b...)
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
	tables    map[string]*Rollup
	classes   map[string]*Rollup
	pairs     map[string]*Rollup // by PairKey
	pairKey   []byte             // bumpRollups' scratch PairKey
	strs      map[string]string  // the one copy of each string events share (see intern)
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

// replayBatch is how many decoded records Open hands its applying
// goroutine at a time.
const replayBatch = 1024

// Open opens (creating if absent) the store at path, replaying the
// record log to rebuild the event index and pattern rollups. A torn
// final record from a crash mid-append is dropped and truncated away.
// The log's reader decodes each record while a second goroutine applies
// the ones before it in log order; the first record that fails either way
// fails Open, named by its offset, with the file left as it was.
func Open(path string, opts ...StoreOption) (*Store, error) {
	s := &Store{
		events:  btree.New[string, *Event](strings.Compare),
		tables:  map[string]*Rollup{},
		classes: map[string]*Rollup{},
		pairs:   map[string]*Rollup{},
		strs:    map[string]string{},
		now:     time.Now,
	}
	for _, opt := range opts {
		opt(s)
	}
	type frame struct {
		off int64
		rec record
	}
	var batch []frame
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
			work <- batch
			batch = make([]frame, 0, replayBatch)
		}
		return nil
	}, finish)
	if err != nil {
		_ = finish() // stops the applier if the open failed before replay ended; err is the verdict
		return nil, err
	}
	s.log = log
	return s, nil
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
		s.intern(e)
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

// intern gives a decoded event strings of its own: a copy of its
// fingerprint, and for every other string the one copy all events share —
// apps, classes, APIs, tables, SQL templates and file:line locations
// repeat across thousands of events.
func (s *Store) intern(e *Event) {
	e.Fingerprint = strings.Clone(e.Fingerprint)
	t0, t1 := &e.Txns[0], &e.Txns[1]
	for _, p := range [...]*string{&e.App, &e.Class, &e.APIs[0], &e.APIs[1], &t0.API, &t0.HoldsSQL,
		&t0.HoldsAt, &t0.WaitsSQL, &t0.WaitsAt, &t1.API, &t1.HoldsSQL, &t1.HoldsAt, &t1.WaitsSQL, &t1.WaitsAt} {
		s.share(p)
	}
	for i := range e.Tables {
		s.share(&e.Tables[i])
	}
}

// share points *p at the store's copy of the string, made on first sight.
func (s *Store) share(p *string) {
	if c, ok := s.strs[*p]; ok {
		*p = c
	} else if *p != "" {
		*p = strings.Clone(*p)
		s.strs[*p] = *p
	}
}

// bumpRollups folds a new event, or a new sighting of a known one, into
// every rollup it belongs to.
func (s *Store) bumpRollups(e *Event, newEvent bool) {
	for _, t := range e.Tables {
		rollup(s.tables, t, e).bump(e, newEvent)
	}
	if e.Class != "" {
		rollup(s.classes, e.Class, e).bump(e, newEvent)
	}
	s.pairKey = appendPairKey(s.pairKey[:0], e.APIs[0], e.APIs[1])
	r := s.pairs[string(s.pairKey)] // a lookup by a converted []byte does not allocate
	if r == nil {
		r = rollup(s.pairs, string(s.pairKey), e)
	}
	r.bump(e, newEvent)
}

// rollup returns m's rollup for key, starting one at e's times when m has
// none.
func rollup(m map[string]*Rollup, key string, e *Event) *Rollup {
	r := m[key]
	if r == nil {
		r = &Rollup{Key: key, FirstSeen: e.FirstSeen, LastSeen: e.LastSeen}
		m[key] = r
	}
	return r
}

// bump folds a new event, or a new sighting of a known one, into r.
func (r *Rollup) bump(e *Event, newEvent bool) {
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

// collect returns m's rollups in key order.
func collect(m map[string]*Rollup) []Rollup {
	out := make([]Rollup, 0, len(m))
	for _, r := range m {
		out = append(out, *r)
	}
	slices.SortFunc(out, func(a, b Rollup) int { return strings.Compare(a.Key, b.Key) })
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
		out = make([]TableCount, 0, len(s.tables))
		for t, r := range s.tables {
			out = append(out, TableCount{Table: t, Events: r.Events, Seen: r.Seen})
		}
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
