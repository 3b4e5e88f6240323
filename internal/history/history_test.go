package history

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"weseer/internal/btree"
)

// fixedClock returns a deterministic advancing clock so ingests get
// distinct, reproducible timestamps.
func fixedClock() func() time.Time {
	t := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	return func() time.Time {
		t = t.Add(time.Minute)
		return t
	}
}

// openClocked opens the store at path with its clock pinned to now, so
// ingested timestamps are byte-comparable against golden output. Open
// reads no clock: replay takes its times from the log.
func openClocked(path string, now func() time.Time) (*Store, error) {
	s, err := Open(path)
	if err == nil {
		s.now = now
	}
	return s, err
}

func testEvents() []Event {
	return []Event{
		{
			Fingerprint: "00000000000000a1",
			App:         "broadleaf", Class: "d1",
			APIs:   [2]string{"Checkout", "UpdateSku"},
			Tables: []string{"Sku", "Order", "Sku"}, // dup + unsorted on purpose
			Txns: [2]TxnLock{
				{API: "Checkout", HoldsSQL: "UPDATE Sku SET qty = ?", HoldsAt: "cart.go:42",
					WaitsSQL: "UPDATE Order SET total = ?", WaitsAt: "cart.go:51"},
				{API: "UpdateSku", HoldsSQL: "UPDATE Order SET total = ?", HoldsAt: "admin.go:10",
					WaitsSQL: "UPDATE Sku SET qty = ?", WaitsAt: "admin.go:12"},
			},
			Count: 4,
		},
		{
			Fingerprint: "00000000000000b2",
			App:         "broadleaf", Class: "d2",
			APIs:   [2]string{"Checkout", "Checkout"},
			Tables: []string{"Order", "Customer"},
			Count:  1,
		},
		{
			Fingerprint: "00000000000000c3",
			App:         "shopizer", Class: "d14",
			APIs:   [2]string{"AddProduct", "Checkout"},
			Tables: []string{"Product"},
			Count:  2,
		},
	}
}

// snapshot serializes everything queryable so before/after states can
// be compared byte for byte.
func snapshot(t *testing.T, s *Store) []byte {
	t.Helper()
	out := struct {
		Events   []Event        `json:"events"`
		Patterns PatternSummary `json:"patterns"`
		Tables   []TableCount   `json:"tables"`
	}{s.Events(EventQuery{}), s.Patterns(), s.TableCounts(time.Time{})}
	raw, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestStoreDurability is the satellite's reload pin: write events,
// close, reopen — the event list and every rollup must be
// byte-identical to the pre-close state.
func TestStoreDurability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.wal")
	s, err := openClocked(path, fixedClock())
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Ingest(testEvents())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Stored != 3 || sum.Deduped != 0 || sum.Events != 3 {
		t.Fatalf("first ingest: %+v", sum)
	}
	// A second ingest of the same corpus must be pure dedup.
	sum, err = s.Ingest(testEvents())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Stored != 0 || sum.Deduped != 3 || sum.Events != 3 {
		t.Fatalf("re-ingest not idempotent: %+v", sum)
	}
	before := snapshot(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	after := snapshot(t, s2)
	if string(before) != string(after) {
		t.Fatalf("reloaded state differs:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if s2.Len() != 3 || s2.Patterns().Sightings != 6 {
		t.Fatalf("reloaded store: %d events, %d sightings", s2.Len(), s2.Patterns().Sightings)
	}
}

// TestStoreTornTailRecovery truncates the log mid-record: the store
// must reopen with the intact prefix, and ingest must work afterwards.
func TestStoreTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.wal")
	s, err := openClocked(path, fixedClock())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(testEvents()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the final record's payload.
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := openClocked(path, fixedClock())
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Fatalf("after torn tail: %d events, want 2", s2.Len())
	}
	// The dropped event must be ingestable again (its record is gone).
	sum, err := s2.Ingest(testEvents())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Stored != 1 || sum.Deduped != 2 {
		t.Fatalf("post-recovery ingest: %+v", sum)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	// And the repaired log must reload cleanly.
	s3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 3 {
		t.Fatalf("after repair: %d events, want 3", s3.Len())
	}
}

func TestRollupsAndQueries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.wal")
	s, err := openClocked(path, fixedClock())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Ingest(testEvents()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(testEvents()[:1]); err != nil { // re-sight the first event
		t.Fatal(err)
	}

	p := s.Patterns()
	if p.Events != 3 || p.Sightings != 4 {
		t.Fatalf("patterns totals: %+v", p)
	}
	classes := map[string]Rollup{}
	for _, r := range p.Classes {
		classes[r.Key] = r
	}
	if r := classes["d1"]; r.Events != 1 || r.Seen != 2 {
		t.Errorf("class d1 rollup: %+v", r)
	}
	if r := classes["d14"]; r.Events != 1 || r.Seen != 1 {
		t.Errorf("class d14 rollup: %+v", r)
	}
	tables := map[string]Rollup{}
	for _, r := range p.Tables {
		tables[r.Key] = r
	}
	if r := tables["Order"]; r.Events != 2 || r.Seen != 3 {
		t.Errorf("table Order rollup: %+v", r)
	}
	if r := tables["Sku"]; r.Events != 1 || r.Seen != 2 {
		t.Errorf("table Sku rollup (dup table must count once): %+v", r)
	}
	pairs := map[string]Rollup{}
	for _, r := range p.Pairs {
		pairs[r.Key] = r
	}
	if r := pairs[PairKey("UpdateSku", "Checkout")]; r.Events != 1 {
		t.Errorf("pair rollup: %+v", r)
	}

	// Event filters.
	if got := len(s.Events(EventQuery{Table: "Order"})); got != 2 {
		t.Errorf("Events(Table=Order) = %d, want 2", got)
	}
	if got := len(s.Events(EventQuery{Class: "d14"})); got != 1 {
		t.Errorf("Events(Class=d14) = %d, want 1", got)
	}
	if got := len(s.Events(EventQuery{API: "Checkout"})); got != 3 {
		t.Errorf("Events(API=Checkout) = %d, want 3", got)
	}
	if got := len(s.Events(EventQuery{Limit: 2})); got != 2 {
		t.Errorf("Events(Limit=2) = %d, want 2", got)
	}

	// Windowed table trend: only the re-sighted event falls in a window
	// starting after the first batch.
	all := s.TableCounts(time.Time{})
	if len(all) == 0 || all[0].Table != "Order" {
		t.Errorf("TableCounts order: %+v", all)
	}
	ev := s.Events(EventQuery{Class: "d1"})[0]
	recent := s.TableCounts(ev.LastSeen)
	names := map[string]bool{}
	for _, c := range recent {
		names[c.Table] = true
	}
	if !names["Sku"] || names["Product"] {
		t.Errorf("windowed TableCounts: %+v", recent)
	}
}

// TestEventsMatchSortedScan: Events answers what a model of the ingests
// does — every event, filtered, sorted by fingerprint, cut at Limit —
// for random queries over a store whose fingerprints arrive in random
// order, several batches deep with re-sightings, live and after a reopen.
func TestEventsMatchSortedScan(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	path := filepath.Join(t.TempDir(), "history.wal")
	s, err := openClocked(path, func() time.Time { return now })
	if err != nil {
		t.Fatal(err)
	}
	pick := func(prefix string, n int) string { return fmt.Sprintf("%s%d", prefix, rng.Intn(n)) }
	var pool []Event // fingerprints random, so log order is not fingerprint order
	for i := 0; i < 150; i++ {
		tables := []string{pick("T", 9), pick("T", 9)}
		slices.Sort(tables)
		pool = append(pool, Event{
			Fingerprint: fmt.Sprintf("%016x", rng.Uint64()),
			App:         "app",
			Class:       pick("c", 4)[:rng.Intn(2)*2], // "" or one of c0..c3
			APIs:        [2]string{pick("A", 6), pick("A", 6)},
			Tables:      slices.Compact(tables),
			Count:       1 + rng.Intn(3),
		})
	}
	model := map[string]*Event{}
	var times []time.Time
	resighted := 0
	for b := 0; b < 12; b++ {
		now = now.Add(time.Duration(1+rng.Intn(90)) * time.Minute)
		times = append(times, now)
		batch := make([]Event, 5+rng.Intn(20))
		for i := range batch {
			batch[i] = pool[rng.Intn(min(len(pool), 15*(b+1)))] // later batches re-sight earlier events
		}
		if _, err := s.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		for _, e := range batch {
			if m := model[e.Fingerprint]; m != nil {
				m.Seen++
				m.LastSeen = now
				resighted++
				continue
			}
			e.Seen, e.FirstSeen, e.LastSeen = 1, now, now
			model[e.Fingerprint] = &e
		}
	}
	if len(model) < 80 || resighted < 20 {
		t.Fatalf("the store holds %d events sighted again %d times", len(model), resighted)
	}
	oracle := func(q EventQuery) []Event {
		out := []Event{}
		for _, e := range model {
			switch {
			case q.Table != "" && !slices.Contains(e.Tables, q.Table),
				q.Class != "" && e.Class != q.Class,
				q.API != "" && e.APIs[0] != q.API && e.APIs[1] != q.API,
				e.LastSeen.Before(q.Since):
				continue
			}
			out = append(out, *e)
		}
		slices.SortFunc(out, func(a, b Event) int { return strings.Compare(a.Fingerprint, b.Fingerprint) })
		if q.Limit > 0 && len(out) > q.Limit {
			out = out[:q.Limit]
		}
		return out
	}
	check := func(s *Store, stage string) {
		t.Helper()
		cut := 0
		for i := 0; i < 400; i++ {
			var q EventQuery
			if rng.Intn(3) == 0 {
				q.Table = pick("T", 10) // T9 names no table
			}
			if rng.Intn(3) == 0 {
				q.Class = pick("c", 5) // c4 names no class
			}
			if rng.Intn(3) == 0 {
				q.API = pick("A", 7) // A6 names no API
			}
			if rng.Intn(2) == 0 {
				q.Since = times[rng.Intn(len(times))].Add(time.Duration(rng.Intn(3)-1) * time.Nanosecond)
			}
			all := len(oracle(q))
			q.Limit = []int{0, 1, all + 1 + rng.Intn(3), 1 + rng.Intn(all+1)}[rng.Intn(4)]
			if q.Limit > 0 && q.Limit < all {
				cut++
			}
			if got, want := toJSON(t, s.Events(q)), toJSON(t, oracle(q)); got != want {
				t.Fatalf("%s: Events(%+v) =\n%s\nwant\n%s", stage, q, got, want)
			}
		}
		if cut < 50 {
			t.Fatalf("%s: only %d queries cut at a Limit below their matches", stage, cut)
		}
	}
	check(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(path); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check(s, "reopen")
}

// toJSON renders v as JSON, the form /history/events answers in.
func toJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestIngestRejectsFingerprintless(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "history.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Ingest([]Event{{APIs: [2]string{"A", "B"}}}); err == nil {
		t.Fatal("ingest accepted an event without a fingerprint")
	}
}

// TestBatchInternalDedup: the same fingerprint twice in one batch
// stores once and touches once.
func TestBatchInternalDedup(t *testing.T) {
	s, err := openClocked(filepath.Join(t.TempDir(), "history.wal"), fixedClock())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ev := testEvents()[0]
	sum, err := s.Ingest([]Event{ev, ev})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Stored != 1 || sum.Deduped != 1 || sum.Events != 1 {
		t.Fatalf("batch dedup: %+v", sum)
	}
}

// TestManyEventsReload pins replay fidelity at size.
func TestManyEventsReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.wal")
	s, err := openClocked(path, fixedClock())
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	for i := 0; i < 500; i++ {
		events = append(events, Event{
			Fingerprint: fmt.Sprintf("%016x", i),
			Class:       fmt.Sprintf("f%d", i%11+1),
			APIs:        [2]string{fmt.Sprintf("API%d", i%17), fmt.Sprintf("API%d", i%13)},
			Tables:      []string{fmt.Sprintf("T%d", i%29), fmt.Sprintf("T%d", i%7)},
		})
	}
	if _, err := s.Ingest(events); err != nil {
		t.Fatal(err)
	}
	before := snapshot(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if string(before) != string(snapshot(t, s2)) {
		t.Fatal("500-event reload diverged")
	}
	if s2.Len() != 500 {
		t.Fatalf("len = %d", s2.Len())
	}
}

// TestIngestAllOrNothing: an invalid event anywhere in a batch fails the
// batch before a byte is appended or a rollup touched.
func TestIngestAllOrNothing(t *testing.T) {
	s, err := openClocked(filepath.Join(t.TempDir(), "history.wal"), fixedClock())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Ingest(testEvents()[:1]); err != nil {
		t.Fatal(err)
	}
	size, before := s.Size(), snapshot(t, s)
	for bad := 0; bad < 3; bad++ {
		batch := testEvents()
		batch[bad].Fingerprint = ""
		sum, err := s.Ingest(batch)
		if !errors.Is(err, ErrInvalidEvent) {
			t.Fatalf("bad event at %d: err = %v, want ErrInvalidEvent", bad, err)
		}
		if sum.Stored != 0 || sum.Deduped != 0 {
			t.Errorf("bad event at %d: summary %+v claims work", bad, sum)
		}
		if s.Len() != 1 || s.Size() != size || string(snapshot(t, s)) != string(before) {
			t.Fatalf("bad event at %d changed the store: %d events, %d bytes (was 1, %d)", bad, s.Len(), s.Size(), size)
		}
	}
}

// TestIngestRefusesOversizedRecord: an event that encodes past the log's
// record limit is the caller's payload at fault — ErrRecordTooLarge, found
// before the first append, so the events ahead of it in the batch are not
// stored either.
func TestIngestRefusesOversizedRecord(t *testing.T) {
	s, err := openClocked(filepath.Join(t.TempDir(), "history.wal"), fixedClock())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Ingest(testEvents()[:1]); err != nil {
		t.Fatal(err)
	}
	defer func(old int) { maxRecord = old }(maxRecord)
	maxRecord = 512
	size, before := s.Size(), snapshot(t, s)
	batch := testEvents()
	batch[2].Class = strings.Repeat("x", maxRecord)
	sum, err := s.Ingest(batch)
	if !errors.Is(err, btree.ErrRecordTooLarge) {
		t.Fatalf("err = %v, want btree.ErrRecordTooLarge", err)
	}
	if sum.Stored != 0 || sum.Deduped != 0 {
		t.Errorf("summary %+v claims work", sum)
	}
	if s.Size() != size || string(snapshot(t, s)) != string(before) {
		t.Fatalf("refused batch changed the store: %d bytes, was %d", s.Size(), size)
	}
	if sum, err := s.Ingest(testEvents()); err != nil || sum.Stored != 2 {
		t.Fatalf("the same batch without the oversized field: %+v, %v", sum, err)
	}
}

// TestEventsResultIsTheCallers: sorting or overwriting a returned event's
// Tables must not reach the store's index.
func TestEventsResultIsTheCallers(t *testing.T) {
	s, err := openClocked(filepath.Join(t.TempDir(), "history.wal"), fixedClock())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Ingest(testEvents()); err != nil {
		t.Fatal(err)
	}
	before := snapshot(t, s)
	for _, e := range s.Events(EventQuery{}) {
		for i := range e.Tables {
			e.Tables[i] = "HACKED"
		}
		_ = append(e.Tables[:0], "HACKED", "HACKED", "HACKED")
	}
	if after := snapshot(t, s); string(after) != string(before) {
		t.Fatalf("mutating a query result changed the store:\n%s\n%s", before, after)
	}
	if got := len(s.Events(EventQuery{Table: "Sku"})); got != 1 {
		t.Errorf("table filter finds %d events after the mutation, want 1", got)
	}
}

// TestIngestLeavesCallerMemoryAlone: Ingest does not reorder or dedup the
// caller's Tables in place, and the stored event does not change when the
// caller later writes to what it passed in.
func TestIngestLeavesCallerMemoryAlone(t *testing.T) {
	s, err := openClocked(filepath.Join(t.TempDir(), "history.wal"), fixedClock())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	in := []Event{{Fingerprint: "00000000000000f6", APIs: [2]string{"A", "B"}, Tables: []string{"T2", "T1", "T2"}}}
	if _, err := s.Ingest(in); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(in[0].Tables); got != "[T2 T1 T2]" {
		t.Errorf("Ingest rewrote the caller's Tables to %s", got)
	}
	if in[0].Seen != 0 || in[0].Count != 0 || !in[0].FirstSeen.IsZero() {
		t.Errorf("Ingest stamped the caller's event: %+v", in[0])
	}
	in[0].Tables[0], in[0].Tables[1] = "HACKED", "HACKED"
	if got := fmt.Sprint(s.Events(EventQuery{})[0].Tables); got != "[T1 T2]" {
		t.Errorf("stored Tables = %s after the caller wrote to its slice, want [T1 T2]", got)
	}
}

// scanTableCounts is the reference for TableCounts: a scan of every event.
func scanTableCounts(events []Event, since time.Time) []TableCount {
	acc := map[string]*TableCount{}
	for _, e := range events {
		if !since.IsZero() && e.LastSeen.Before(since) {
			continue
		}
		for _, t := range e.Tables {
			if acc[t] == nil {
				acc[t] = &TableCount{Table: t}
			}
			acc[t].Events++
			acc[t].Seen += e.Seen
		}
	}
	out := []TableCount{}
	for _, c := range acc {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Events != out[j].Events {
			return out[i].Events > out[j].Events
		}
		return out[i].Table < out[j].Table
	})
	return out
}

// TestTableCountsRollupMatchesScan: around the oldest event's first
// sighting, where TableCounts switches from the tables rollup to a scan,
// and at the store's now, it answers what a scan of every event does —
// after new events, after touches, and after a reopen.
func TestTableCountsRollupMatchesScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.wal")
	s, err := openClocked(path, fixedClock())
	if err != nil {
		t.Fatal(err)
	}
	pool := benchBatches(benchBatch)[0][:60]
	check := func(s *Store, stage string) {
		t.Helper()
		first := s.firstSeen
		if e := s.Events(EventQuery{Table: pool[0].Tables[0]}); len(e) == 0 || e[0].FirstSeen != first {
			t.Fatalf("%s: firstSeen %v is not the first ingest's time", stage, first)
		}
		all := scanTableCounts(s.Events(EventQuery{}), time.Time{})
		for _, since := range []time.Time{{}, first.Add(-time.Nanosecond), first, first.Add(time.Nanosecond), s.now()} {
			want := scanTableCounts(s.Events(EventQuery{}), since)
			if got := s.TableCounts(since); !slices.Equal(got, want) {
				t.Errorf("%s: TableCounts(%v) = %v, scan %v", stage, since, got, want)
			}
		}
		if young := s.TableCounts(first.Add(time.Nanosecond)); slices.Equal(young, all) {
			t.Errorf("%s: a window after the first ingest counts every event", stage)
		}
	}
	for _, batch := range [][]Event{pool[:20], pool[20:40]} {
		if _, err := s.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	check(s, "new events")
	for _, batch := range [][]Event{pool[5:15], pool[10:30]} {
		if _, err := s.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	check(s, "touches")
	if _, err := s.Ingest(pool[40:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = openClocked(path, fixedClock())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check(s, "reopen")
}

// TestTableEventsMatchFullScan: a table= query, which walks the table's
// own list of events, answers what a scan of every event record answers,
// on random stores — live (a duplicate event record of a racing writer
// included), after the live compaction that renumbers the events past
// the duplicate, and after a reopen.
func TestTableEventsMatchFullScan(t *testing.T) {
	// fullScan is Events before the per-table lists: every event record,
	// a duplicate one skipped.
	fullScan := func(s *Store, q EventQuery) []Event {
		table, ok1 := s.ids[q.Table]
		class, ok2 := s.ids[q.Class]
		api, ok3 := s.ids[q.API]
		out := []Event{}
		if !ok1 || !ok2 || !ok3 {
			return out
		}
		var hits []*entry
		for i, e := range s.byOrd {
			if e.ord == i && q.match(e, table, class, api) {
				hits = append(hits, e)
			}
		}
		slices.SortFunc(hits, func(a, b *entry) int { return strings.Compare(a.fp, b.fp) })
		if q.Limit > 0 && len(hits) > q.Limit {
			hits = hits[:q.Limit]
		}
		for _, e := range hits {
			out = append(out, s.event(e))
		}
		return out
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		path := filepath.Join(t.TempDir(), "history.wal")
		s, err := openClocked(path, fixedClock())
		if err != nil {
			t.Fatal(err)
		}
		var pool []Event
		for i := 0; i < 60; i++ {
			pool = append(pool, Event{
				Fingerprint: fmt.Sprintf("%016x", rng.Uint64()),
				APIs:        [2]string{fmt.Sprint("A", rng.Intn(4)), fmt.Sprint("A", rng.Intn(4))},
				Class:       fmt.Sprint("c", rng.Intn(3)),
				Tables:      []string{fmt.Sprint("T", rng.Intn(6)), fmt.Sprint("T", rng.Intn(6)), fmt.Sprint("T", rng.Intn(6))},
			})
		}
		for b := 0; b < 30; b++ { // re-sightings outnumber the events
			batch := make([]Event, 1+rng.Intn(10))
			for i := range batch {
				batch[i] = pool[rng.Intn(len(pool))]
			}
			if _, err := s.Ingest(batch); err != nil {
				t.Fatal(err)
			}
		}
		check := func(stage string) {
			t.Helper()
			for i := 0; i < 200; i++ {
				q := EventQuery{Limit: rng.Intn(4) * rng.Intn(20)}
				if rng.Intn(4) > 0 {
					q.Table = fmt.Sprint("T", rng.Intn(7)) // T6 names no table
				}
				if rng.Intn(2) == 0 {
					q.API = fmt.Sprint("A", rng.Intn(4))
				}
				if got, want := toJSON(t, s.Events(q)), toJSON(t, fullScan(s, q)); got != want {
					t.Fatalf("seed %d, %s: Events(%+v) =\n%s\nfull scan\n%s", seed, stage, q, got, want)
				}
			}
		}
		// A racing writer's duplicate of a stored event record.
		dup := *s.byOrd[rng.Intn(len(s.byOrd))]
		payload := s.encode(record{kind: recEvent, e: &dup})
		if err := s.log.Append(payload); err != nil {
			t.Fatal(err)
		}
		if err := s.applyPayload(payload); err != nil {
			t.Fatal(err)
		}
		check("live")
		for compacted := false; !compacted; { // re-sight until an ingest compacts
			batch := pool[rng.Intn(len(pool)-10):][:10]
			touches := s.touches
			sum, err := s.Ingest(batch)
			if err != nil {
				t.Fatal(err)
			}
			compacted = s.touches != touches+sum.Deduped
		}
		if len(s.byOrd) != len(s.events) {
			t.Fatalf("seed %d: the compaction kept %d event records of %d events", seed, len(s.byOrd), len(s.events))
		}
		check("compacted")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s, err = Open(path); err != nil {
			t.Fatal(err)
		}
		check("reopen")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
