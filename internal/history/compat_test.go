package history

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
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
	s, err := openClocked(path, fixedClock())
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

// testdata/v1.wal is the version-1 log (no file header, no dictionary,
// FNV-1a frames) that the store at commit b052044, the last to write that
// format, wrote for ingestLegacySequence under fixedClock. To regenerate
// it, check out that commit and run, in internal/history, a test that
// opens testdata/v1.wal WithClock(fixedClock()), calls
// ingestLegacySequence and closes the store.

// v1Frame frames payload as a version-1 log did.
func v1Frame(payload []byte) []byte {
	h := fnv.New32a()
	h.Write(payload)
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	return append(binary.LittleEndian.AppendUint32(out, h.Sum32()), payload...)
}

// frameKinds counts the records of each kind in the version-2 log at path,
// failing the test if it is not one.
func frameKinds(t *testing.T, path string) map[byte]int {
	t.Helper()
	kinds := map[byte]int{}
	l, err := btree.OpenLog(path, func(raw []byte) error {
		rec, err := decodeRecord(raw)
		kinds[rec.kind]++
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return kinds
}

// TestForeignLogRefused: a file Open cannot read — a valid version-1 log,
// one with a JSON payload, as the store before the binary codec wrote, a
// headerless file without one intact version-1 frame, a version-2 log with
// a record that does not decode, a log of an unknown version — fails to
// open and is left byte for byte as it was. A file without the version-2
// header is refused as a *btree.FormatError.
func TestForeignLogRefused(t *testing.T) {
	v1 := readGolden(t, "v1.wal")
	firstV1 := v1[:8+binary.LittleEndian.Uint32(v1)]
	undecodable := filepath.Join(t.TempDir(), "undecodable.wal")
	l, err := btree.OpenLog(undecodable, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte{9, 0}); err != nil { // an unknown kind
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	v2, err := os.ReadFile(undecodable)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"JSON payload":   append(slices.Clone(firstV1), v1Frame([]byte(`{"t":"touch","fp":"00000000000000a1","at":"2026-08-08T12:01:00Z"}`))...),
		"garbage":        []byte("not a log at all"),
		"undecodable":    v2,
		"version 3":      append([]byte("WSLG\x03\x00\x00\x00"), v2[8:]...),
		"version-1 head": v1[:40],
		"version 1":      v1,
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "history.wal")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(path)
			if err == nil {
				s.Close()
				t.Fatal("opened")
			}
			var fe *btree.FormatError
			if foreign := !bytes.HasPrefix(data, v2[:8]); foreign != errors.As(err, &fe) {
				t.Fatalf("refused with %v, want a *btree.FormatError exactly for a file without the version-2 header", err)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
				t.Fatalf("the refused open changed the log: %d bytes, was %d", len(after), len(data))
			}
		})
	}
}

// ingestPayloads returns the records a store appends for events, each a
// new fingerprint: the def of each string it meets first, then the event.
func ingestPayloads(t *testing.T, events []Event) [][]byte {
	t.Helper()
	s := newStore()
	var out [][]byte
	for i := range events {
		if err := s.emitEvent(&events[i], func(p []byte) error {
			out = append(out, slices.Clone(p))
			return s.applyPayload(p)
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestOpenFailsOnBadRecord: a record that does not apply (a touch of an
// event no record before it introduced, an id past the dictionary, a
// second def of a string) or does not decode, batched into the log, fails
// Open with an error naming that record's offset even when a later record
// is bad too, leaves the log — torn tail included — as it was, and leaves
// no replay goroutine behind.
func TestOpenFailsOnBadRecord(t *testing.T) {
	payloads := ingestPayloads(t, slices.Concat(benchBatches(3*benchBatch)...))
	records, mid := len(payloads), replayBatch+replayBatch/2
	eventsBefore := 0 // event records ahead of record mid
	for _, p := range payloads[:mid] {
		if p[0] == recEvent {
			eventsBefore++
		}
	}
	unknownTouch := appendRecord(nil, record{kind: recTouch, ord: 1 << 20})
	nextTouch := appendRecord(nil, record{kind: recTouch, ord: uint64(eventsBefore)})
	pastDict := appendRecord(nil, record{kind: recEvent, e: &entry{fp: "past-the-dictionary", ids: [numIDs]uint32{idClass: 1 << 20}}})
	dupDef := appendRecord(nil, record{kind: recDef, def: "synthetic"})
	undecodable := []byte{recEvent, 0x80, 0x00}
	for _, c := range []struct {
		name  string
		bad   map[int][]byte // record index → payload
		first int
	}{
		{"apply", map[int][]byte{mid: unknownTouch}, mid},
		{"decode", map[int][]byte{mid: undecodable}, mid},
		{"apply before decode", map[int][]byte{replayBatch + 1: unknownTouch, replayBatch + 9: undecodable}, replayBatch + 1},
		{"last record", map[int][]byte{records - 1: unknownTouch}, records - 1},
		{"id past the dictionary", map[int][]byte{mid: pastDict}, mid},
		{"touch of the next event", map[int][]byte{mid: nextTouch}, mid},
		{"duplicate def", map[int][]byte{mid: dupDef}, mid},
	} {
		t.Run(c.name, func(t *testing.T) {
			obstest.CheckGoroutines(t)
			path := filepath.Join(t.TempDir(), "history.wal")
			l, err := btree.OpenLog(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			var off int64
			for i, payload := range payloads {
				if bad, ok := c.bad[i]; ok {
					payload = bad
				}
				if i == c.first {
					off = l.Size()
				}
				if err := l.Append(payload); err != nil {
					t.Fatal(err)
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
// queryable byte of the live store, and the three /history/* bodies, with
// the reopened one and with a second reopen, on its own and behind enough
// new events that its replay spans several of Open's batches. On its own
// the sequence re-sights more than it stores, so its ingests compact the
// log while the store is live; behind the prefill none does. Neither
// reopen changes a byte of the log.
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
	s, err := openClocked(path, fixedClock())
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range batches[1:] {
		if _, err := s.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	received, compactions := 0, 0
	for i := 0; i < 300; i++ {
		batch := make([]Event, 1+rng.Intn(8))
		for j := range batch {
			batch[j] = pool[rng.Intn(1+min(len(pool)-1, i))] // the reachable pool grows, so early batches repeat
		}
		if rng.Intn(4) == 0 {
			batch = append(batch, batch[0])
		}
		received += len(batch)
		touches := s.touches
		sum, err := s.Ingest(batch)
		if err != nil {
			t.Fatal(err)
		}
		if s.touches != touches+sum.Deduped {
			compactions++
		}
		if s.touches > len(s.byOrd) {
			t.Fatalf("ingest %d left %d touch records over %d event records", i, s.touches, len(s.byOrd))
		}
	}
	if (compactions > 0) != (prefill == 0) {
		t.Fatalf("the sequence compacted the log %d times; want compactions only without the prefill", compactions)
	}
	if n := s.Len() - prefill; s.Patterns().Sightings-prefill != received || n < 100 || n == received {
		t.Fatalf("sequence stored %d events over %d sightings of %d received", n, s.Patterns().Sightings-prefill, received)
	}
	live, liveBodies := snapshot(t, s), historyBodies(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	readLog := func() []byte {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if kinds := frameKinds(t, path); kinds[recTouch] != s.touches || kinds[recEvent] != len(s.byOrd) {
		t.Fatalf("the log holds %d touch and %d event records, the store counted %d and %d",
			kinds[recTouch], kinds[recEvent], s.touches, len(s.byOrd))
	}
	written := readLog()
	reopen := func(stage string) *Store {
		t.Helper()
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := snapshot(t, s); !bytes.Equal(got, live) {
			t.Fatalf("state after %s differs from live state", stage)
		}
		if got := historyBodies(t, s); !bytes.Equal(got, liveBodies) {
			t.Fatalf("bodies after %s differ from live ones:\n%s\nwant:\n%s", stage, got, liveBodies)
		}
		return s
	}
	if err := reopen("the first reopen").Close(); err != nil {
		t.Fatal(err)
	}
	s2 := reopen("the second reopen")
	defer s2.Close()
	if !bytes.Equal(readLog(), written) {
		t.Fatal("a reopen rewrote the log")
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
