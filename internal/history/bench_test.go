package history

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"testing"
)

const (
	benchEvents = 30000 // the serve-cycle benchmark's store size
	benchBatch  = 1000  // its events per Ingest call
)

// benchBatches returns n events (a multiple of benchBatch) shaped like the
// serve-cycle benchmark's synthetic ones — unique fingerprints over 40 APIs,
// 60 tables, 8 classes and their SQL templates — in Ingest-sized batches.
func benchBatches(n int) [][]Event {
	rng := rand.New(rand.NewSource(7))
	var out [][]Event
	for id := 0; id < n; {
		batch := make([]Event, benchBatch)
		for i := range batch {
			id++
			tables := []string{fmt.Sprintf("SynTable%02d", rng.Intn(60)), fmt.Sprintf("SynTable%02d", rng.Intn(60))}
			sort.Strings(tables)
			a, b := fmt.Sprintf("SynApi%d", rng.Intn(40)), fmt.Sprintf("SynApi%d", rng.Intn(40))
			batch[i] = Event{
				Fingerprint: fmt.Sprintf("syn-%08d-%08x", id, rng.Uint32()),
				App:         "synthetic",
				Class:       fmt.Sprintf("syn%d", rng.Intn(8)),
				APIs:        [2]string{a, b},
				Tables:      tables,
				Txns: [2]TxnLock{
					{API: a, HoldsSQL: "UPDATE " + tables[0] + " SET V = ? WHERE ID = ?", WaitsSQL: "SELECT * FROM " + tables[1] + " WHERE ID = ?"},
					{API: b, HoldsSQL: "UPDATE " + tables[1] + " SET V = ? WHERE ID = ?", WaitsSQL: "SELECT * FROM " + tables[0] + " WHERE ID = ?"},
				},
				Count: 1 + rng.Intn(5),
			}
		}
		out = append(out, batch)
	}
	return out
}

// fillStore ingests batches into a fresh store at path and returns it.
func fillStore(b *testing.B, path string, batches [][]Event) *Store {
	b.Helper()
	s, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range batches {
		if _, err := s.Ingest(batch); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkStoreOpen is a daemon restart: replay a 30,000-event log into
// the indexes and rollups. Profile it with
//
//	go test -run '^$' -bench StoreOpen -cpuprofile cpu.pprof ./internal/history
func BenchmarkStoreOpen(b *testing.B) {
	path := filepath.Join(b.TempDir(), "history.wal")
	s := fillStore(b, path, benchBatches(benchEvents))
	size := s.Size()
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != benchEvents {
			b.Fatalf("reopened %d events", s.Len())
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(size)/benchEvents, "bytes/event")
}

// BenchmarkStoreIngest fills a fresh store with 30,000 new events, one
// fsync per 1,000.
func BenchmarkStoreIngest(b *testing.B) {
	batches := benchBatches(benchEvents)
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	var size int64
	for i := 0; i < b.N; i++ {
		s := fillStore(b, filepath.Join(dir, fmt.Sprintf("history-%d.wal", i)), batches)
		size = s.Size()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size)/benchEvents, "bytes/event")
}

// serveCycleQueries are the sixty GETs one serve-cycle op sends, in its
// order: 20 of the pattern rollups, 20 of one table's events, 20 of the
// last hour's table counts.
func serveCycleQueries() []string {
	var out []string
	for _, path := range []string{"/history/patterns", "/history/events?table=SynTable07&limit=100", "/history/tables?window=1h"} {
		for i := 0; i < 20; i++ {
			out = append(out, path)
		}
	}
	return out
}

// routesMux mounts a Server's routes the way the obs debug server does.
func routesMux(srv *Server) *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range srv.Routes() {
		mux.Handle(rt.Pattern, rt.Handler)
	}
	return mux
}

// BenchmarkQueries is one serve-cycle op's read traffic over the
// 30,000-event store, through the routes of a fresh Server per op (the
// benchmark restarts the daemon every op).
func BenchmarkQueries(b *testing.B) {
	s := fillStore(b, filepath.Join(b.TempDir(), "history.wal"), benchBatches(benchEvents))
	defer s.Close()
	queries := serveCycleQueries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mux := routesMux(&Server{Store: s})
		for _, q := range queries {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q, nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("GET %s: %d %s", q, rec.Code, rec.Body)
			}
		}
	}
}

// BenchmarkCompact is one live compaction of the 30,000-event store: the
// log rewritten from memory, synced and renamed over the old one, all
// under the store's write lock, as Ingest runs it.
func BenchmarkCompact(b *testing.B) {
	s := fillStore(b, filepath.Join(b.TempDir(), "history.wal"), benchBatches(benchEvents))
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.mu.Lock()
		err := s.compact()
		s.mu.Unlock()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.Size())/benchEvents, "bytes/event")
}
