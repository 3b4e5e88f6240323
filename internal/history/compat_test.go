package history

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"weseer/internal/btree"
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

// TestReplayEqualsLiveRandom drives a seeded random ingest sequence —
// new, repeated and in-batch-duplicate fingerprints — and compares every
// queryable byte of the live store with the reopened one.
func TestReplayEqualsLiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	pool := benchBatches(benchBatch)[0][:200]
	path := filepath.Join(t.TempDir(), "history.wal")
	s, err := Open(path, WithClock(fixedClock()))
	if err != nil {
		t.Fatal(err)
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
	if s.Sightings() != received || s.Len() < 100 || s.Len() == received {
		t.Fatalf("sequence stored %d events over %d sightings of %d received", s.Len(), s.Sightings(), received)
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
	// one string.
	bySQL := map[string]string{}
	shared := 0
	for _, e := range s2.Events(EventQuery{}) {
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
