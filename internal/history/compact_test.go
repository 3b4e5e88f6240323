package history

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"weseer/internal/btree"
	"weseer/internal/obs/obstest"
)

// writeLog writes a version-2 log at path holding payloads.
func writeLog(t *testing.T, path string, payloads [][]byte) {
	t.Helper()
	l, err := btree.OpenLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// handMadeLog returns the records of a log no single Ingest sequence
// writes: testEvents and a fourth event, a duplicate event record of the
// second between the third and the fourth, then two touches of every
// event record, ordinal 3 (the duplicate) included.
func handMadeLog(t *testing.T) [][]byte {
	t.Helper()
	at := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	events := append(testEvents(), Event{Fingerprint: "00000000000000d4", APIs: [2]string{"Refund", "Checkout"}, Tables: []string{"Order", "Payment"}})
	s := newStore()
	var out [][]byte
	emit := func(p []byte) error {
		out = append(out, slices.Clone(p))
		return s.applyPayload(p)
	}
	for i := range events {
		e := &events[i]
		e.Tables = normTables(nil, e.Tables)
		e.Seen, e.FirstSeen, e.LastSeen = 1, at, at
		if i == 3 {
			dup := *s.events[events[1].Fingerprint]
			dup.last = at.Add(time.Hour)
			if err := emit(s.encode(record{kind: recEvent, e: &dup})); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.emitEvent(e, emit); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 2*len(s.byOrd); k++ {
		touch := record{kind: recTouch, ord: uint64(k % len(s.byOrd)), at: at.Add(time.Duration(k) * time.Minute)}
		if err := emit(s.encode(touch)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestOpenLeavesLogAlone: Open only replays. A valid log whose touch
// records outnumber its event records opens with every touch counted and
// is left byte for byte as it was, by the open and by the close.
func TestOpenLeavesLogAlone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.wal")
	writeLog(t, path, handMadeLog(t))
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.touches != 10 || len(s.byOrd) != 5 || s.Len() != 4 || s.Patterns().Sightings != 15 {
		t.Fatalf("opened %d touches, %d event records, %d events, %d sightings; want 10, 5, 4, 15",
			s.touches, len(s.byOrd), s.Len(), s.Patterns().Sightings)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Fatalf("opening and closing changed the log: %d bytes, was %d", len(after), len(before))
	}
}

// TestCompactionKeepsBodies: the three /history/* bodies are byte for
// byte the same before a live compaction, right after it and after a
// reopen — on a log an ingest sequence wrote and on the hand-made one
// with a duplicate event record, whose compaction renumbers the events
// after it. Touches ingested after the compaction reach the events they
// name, live and reopened alike.
func TestCompactionKeepsBodies(t *testing.T) {
	ingested := func(t *testing.T, path string) {
		s, err := openClocked(path, fixedClock())
		if err != nil {
			t.Fatal(err)
		}
		ingestLegacySequence(t, s)
		for range 4 { // touches the compaction would fold, had Ingest appended them
			for _, e := range s.byOrd {
				payload := s.encode(record{kind: recTouch, ord: uint64(e.ord), at: e.last.Add(time.Minute)})
				if err := s.log.Append(payload); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for name, write := range map[string]func(*testing.T, string){
		"ingested":  ingested,
		"duplicate": func(t *testing.T, path string) { writeLog(t, path, handMadeLog(t)) },
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "history.wal")
			write(t, path)
			written, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			s, err := openClocked(path, fixedClock())
			if err != nil {
				t.Fatal(err)
			}
			defer func() { s.Close() }()
			before, version := historyBodies(t, s), s.version.Load()
			if s.touches <= len(s.byOrd) {
				t.Fatalf("the log holds %d touch and %d event records: nothing to compact", s.touches, len(s.byOrd))
			}
			if _, err := s.Ingest(nil); err != nil {
				t.Fatal(err)
			}
			if s.touches != 0 || len(s.byOrd) != s.Len() || s.Size() >= int64(len(written)) {
				t.Fatalf("after the compaction: %d touches, %d event records of %d events, %d bytes of %d",
					s.touches, len(s.byOrd), s.Len(), s.Size(), len(written))
			}
			if got := historyBodies(t, s); !bytes.Equal(got, before) || s.version.Load() != version {
				t.Fatalf("bodies after the compaction (version %d, was %d):\n%s\nwant:\n%s", s.version.Load(), version, got, before)
			}
			reopen := func() {
				t.Helper()
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if s, err = openClocked(path, fixedClock()); err != nil {
					t.Fatal(err)
				}
			}
			reopen()
			if got := historyBodies(t, s); !bytes.Equal(got, before) {
				t.Fatalf("bodies after the reopen:\n%s\nwant:\n%s", got, before)
			}

			seen := map[string]int{}
			for _, e := range s.Events(EventQuery{}) {
				seen[e.Fingerprint] = e.Seen
			}
			batch := append(testEvents()[1:], Event{Fingerprint: "00000000000000d4"})
			if _, err := s.Ingest(batch); err != nil {
				t.Fatal(err)
			}
			for _, e := range s.Events(EventQuery{}) {
				if want := seen[e.Fingerprint] + 1; e.Fingerprint != "00000000000000a1" && e.Seen != want {
					t.Errorf("a touch after the compaction left %s seen %d times, want %d", e.Fingerprint, e.Seen, want)
				}
			}
			live := historyBodies(t, s)
			reopen()
			if got := historyBodies(t, s); !bytes.Equal(got, live) {
				t.Fatalf("bodies after the touches and a reopen:\n%s\nwant:\n%s", got, live)
			}
		})
	}
}

// TestStoreSoak is a daemon that re-sights one corpus forever: 1,000
// ingests of the same events, the store closed and reopened every 100.
// After every ingest the log holds no more touch records than event
// records and stays within twice its size after the first ingest, and
// neither the heap nor the goroutine count grows.
func TestStoreSoak(t *testing.T) {
	obstest.CheckGoroutines(t)
	corpus := benchBatches(benchBatch)[0][:50]
	path := filepath.Join(t.TempDir(), "history.wal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	var first int64
	var heap0 uint64
	for i := 1; i <= 1000; i++ {
		if _, err := s.Ingest(corpus); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			first = s.Size()
		}
		if s.touches > len(s.byOrd) || s.Size() > 2*first {
			t.Fatalf("ingest %d: %d touch and %d event records in %d bytes, %d after the first ingest",
				i, s.touches, len(s.byOrd), s.Size(), first)
		}
		if i%100 == 0 {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(path); err != nil {
				t.Fatal(err)
			}
			var m runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m)
			if i == 100 {
				heap0 = m.HeapAlloc
			} else if m.HeapAlloc > heap0+1<<20 {
				t.Fatalf("after %d ingests the heap holds %d bytes, %d after 100", i, m.HeapAlloc, heap0)
			}
		}
	}
	if e := s.Events(EventQuery{Limit: 1}); len(e) != 1 || e[0].Seen != 1000 || s.Patterns().Sightings != 50*1000 {
		t.Fatalf("after the soak: %+v, %d sightings", e, s.Patterns().Sightings)
	}
}
