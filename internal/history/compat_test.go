package history

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
	"unsafe"

	"weseer/internal/btree"
	"weseer/internal/obs/obstest"
)

// testdata/legacy_http.golden is what the three /history/* endpoints of
// the store before the binary payload codec (JSON payloads) answered after
// ingestLegacySequence under fixedClock.

// ingestLegacySequence is the sequence behind the fixture: new events with
// an in-batch duplicate, pure touches, then a sparse new event and a touch.
func ingestLegacySequence(t *testing.T, s *Store) {
	t.Helper()
	ev := testEvents()
	for _, batch := range [][]Event{
		{ev[0], ev[1], ev[0], ev[2]},
		testEvents()[:2],
		{
			{Fingerprint: "00000000000000d4", APIs: [2]string{"Refund", "Checkout"}, Tables: []string{"Payment", "Order"}},
			ev[2],
		},
	} {
		if _, err := s.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
}

// historyBodies returns what the three query endpoints answer, in JSON.
func historyBodies(t *testing.T, s *Store) []byte {
	t.Helper()
	mux := routesMux(&Server{Store: s})
	var out bytes.Buffer
	for _, path := range []string{"/history/patterns", "/history/events", "/history/tables"} {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, w.Code)
		}
		out.WriteString("== " + path + "\n")
		out.Write(w.Body.Bytes())
	}
	return out.Bytes()
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestBodiesMatchParentCommit: the same pinned-clock ingest sequence
// answers the three queries byte for byte as the JSON-payload store did,
// before and after a restart.
func TestBodiesMatchParentCommit(t *testing.T) {
	want := readGolden(t, "legacy_http.golden")
	path := filepath.Join(t.TempDir(), "history.wal")
	s, err := Open(path, WithClock(fixedClock()))
	if err != nil {
		t.Fatal(err)
	}
	ingestLegacySequence(t, s)
	if got := historyBodies(t, s); !bytes.Equal(got, want) {
		t.Fatalf("live bodies differ from the parent commit's:\n%s\nwant:\n%s", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := historyBodies(t, s2); !bytes.Equal(got, want) {
		t.Fatalf("bodies after restart differ:\n%s\nwant:\n%s", got, want)
	}
}

// TestJSONPayloadLogRefused: the store reads one payload encoding. A log
// holding a JSON payload, as the store before the binary codec wrote, does
// not open — a decode error is not a torn tail — and is left as it was.
func TestJSONPayloadLogRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.wal")
	l, err := btree.OpenLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range [][]byte{
		appendRecord(nil, record{kind: recEvent, e: &testEvents()[0]}),
		[]byte(`{"t":"touch","fp":"00000000000000a1","at":"2026-08-08T12:01:00Z"}`),
	} {
		if err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := Open(path); err == nil {
		s.Close()
		t.Fatal("a log with a JSON payload opened")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("the refused open changed the log: %d bytes, was %d", len(after), len(before))
	}
}

// TestOpenFailsOnBadRecord: a record that does not apply (a touch of a
// fingerprint no record before it introduced) or does not decode, batches
// into the log, fails Open with an error naming that record's offset even
// when a later record is bad too, leaves the log — torn tail included — as
// it was, and leaves no replay goroutine behind.
func TestOpenFailsOnBadRecord(t *testing.T) {
	unknownTouch := appendRecord(nil, record{kind: recTouch, fp: "no-such-event", at: time.Unix(0, 0).UTC()})
	undecodable := []byte{recEvent, 0x80, 0x00}
	const records = 3 * benchBatch
	events := benchBatches(records)
	for _, c := range []struct {
		name  string
		bad   map[int][]byte // record index → payload
		first int
	}{
		{"apply", map[int][]byte{replayBatch + replayBatch/2: unknownTouch}, replayBatch + replayBatch/2},
		{"decode", map[int][]byte{replayBatch + replayBatch/2: undecodable}, replayBatch + replayBatch/2},
		{"apply before decode", map[int][]byte{replayBatch + 1: unknownTouch, replayBatch + 9: undecodable}, replayBatch + 1},
		{"last record", map[int][]byte{records - 1: unknownTouch}, records - 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			obstest.CheckGoroutines(t)
			path := filepath.Join(t.TempDir(), "history.wal")
			l, err := btree.OpenLog(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			var off int64
			i := 0
			for _, batch := range events {
				for j := range batch {
					payload := appendRecord(nil, record{kind: recEvent, e: &batch[j]})
					if bad, ok := c.bad[i]; ok {
						payload = bad
					}
					if i == c.first {
						off = l.Size()
					}
					if err := l.Append(payload); err != nil {
						t.Fatal(err)
					}
					i++
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{9, 0, 0}); err != nil { // a torn frame header
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			s, err := Open(path)
			if err == nil {
				s.Close()
				t.Fatal("a log with a bad record opened")
			}
			if want := fmt.Sprintf("@%d: ", off); !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name the offset of record %d (%s)", err, c.first, want)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, before) {
				t.Fatalf("the refused open changed the log: %d bytes, was %d", len(after), len(before))
			}
		})
	}
}

// TestReplayEqualsLiveRandom drives a seeded random ingest sequence —
// new, repeated and in-batch-duplicate fingerprints — and compares every
// queryable byte of the live store with the reopened one, on its own and
// behind enough new events that its replay spans several of Open's batches.
func TestReplayEqualsLiveRandom(t *testing.T) {
	for _, prefill := range []int{0, 5 * benchBatch} {
		t.Run(fmt.Sprintf("prefill=%d", prefill), func(t *testing.T) { replayEqualsLive(t, prefill) })
	}
}

func replayEqualsLive(t *testing.T, prefill int) {
	rng := rand.New(rand.NewSource(16))
	batches := benchBatches(benchBatch + prefill)
	pool := batches[0][:200]
	path := filepath.Join(t.TempDir(), "history.wal")
	s, err := Open(path, WithClock(fixedClock()))
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range batches[1:] {
		if _, err := s.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	received := 0
	for i := 0; i < 300; i++ {
		batch := make([]Event, 1+rng.Intn(8))
		for j := range batch {
			batch[j] = pool[rng.Intn(1+min(len(pool)-1, i))] // the reachable pool grows, so early batches repeat
		}
		if rng.Intn(4) == 0 {
			batch = append(batch, batch[0])
		}
		received += len(batch)
		if _, err := s.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Len() - prefill; s.Sightings()-prefill != received || n < 100 || n == received {
		t.Fatalf("sequence stored %d events over %d sightings of %d received", n, s.Sightings()-prefill, received)
	}
	live := snapshot(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := snapshot(t, s2); !bytes.Equal(got, live) {
		t.Fatal("reopened state differs from live state")
	}

	// The memory half of the codec: equal strings of different events are
	// one string, and an empty one points into no payload copy.
	bySQL := map[string]string{}
	shared := 0
	for _, e := range s2.Events(EventQuery{}) {
		if e.Txns[0].HoldsAt != "" || unsafe.StringData(e.Txns[0].HoldsAt) != nil {
			t.Fatalf("event %s: empty HoldsAt %q holds a pointer", e.Fingerprint, e.Txns[0].HoldsAt)
		}
		sql := e.Txns[0].HoldsSQL
		if prev, ok := bySQL[sql]; ok {
			if unsafe.StringData(prev) != unsafe.StringData(sql) {
				t.Fatalf("two reopened events hold separate copies of %q", sql)
			}
			shared++
		}
		bySQL[sql] = sql
	}
	if shared == 0 {
		t.Fatal("no two events had equal HoldsSQL; the sharing check checked nothing")
	}
}
