package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"testing"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/history"
	"weseer/internal/obs"
)

// daemon is one running serve instance (store + debug server) for the
// end-to-end test; stop() simulates a shutdown, after which the store
// can be reopened as a restart.
type daemon struct {
	store *history.Store
	ds    *obs.DebugServer
	base  string
}

func startDaemon(t *testing.T, storePath string) *daemon {
	t.Helper()
	st, err := history.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver()
	srv := newHistoryServer(st, o, serveConfig{defaultApp: "broadleaf"})
	ds, err := obs.StartDebugServer("127.0.0.1:0", o, srv.Routes()...)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	return &daemon{store: st, ds: ds, base: "http://" + ds.Addr()}
}

func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.ds.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.store.Close(); err != nil {
		t.Fatal(err)
	}
}

// collectTraces runs the app's unit tests under concolic execution and
// returns the trace batch as the JSON `weseer collect` would write.
func collectTraces(t *testing.T, appName string) []byte {
	t.Helper()
	app, err := apps.Open(appName, apps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(traces)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func ingestBatch(t *testing.T, base, appName string, payload []byte) history.IngestSummary {
	t.Helper()
	resp, err := http.Post(base+"/ingest?app="+appName, obs.ContentTypeJSON, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest %s: %s\n%s", appName, resp.Status, body)
	}
	var sum history.IngestSummary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	return sum
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return body
}

// TestServeRoundTripRestart is the PR's acceptance pin: ingest the
// Table II corpora into a running daemon, restart it, and the history
// must still report every catalog deadlock grouped by fingerprint with
// the same rollups; re-ingesting the same traces adds zero events.
func TestServeRoundTripRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table II corpus analysis")
	}
	storePath := filepath.Join(t.TempDir(), "history.wal")
	broadleaf := collectTraces(t, "broadleaf")
	shopizer := collectTraces(t, "shopizer")

	d := startDaemon(t, storePath)
	sumB := ingestBatch(t, d.base, "broadleaf", broadleaf)
	sumS := ingestBatch(t, d.base, "shopizer", shopizer)
	if sumB.Stored == 0 || sumS.Stored == 0 {
		t.Fatalf("first ingests stored nothing: broadleaf %+v shopizer %+v", sumB, sumS)
	}
	stored := sumB.Stored + sumS.Stored

	// Re-ingesting the same traces must add zero events.
	reB := ingestBatch(t, d.base, "broadleaf", broadleaf)
	reS := ingestBatch(t, d.base, "shopizer", shopizer)
	if reB.Stored != 0 || reS.Stored != 0 {
		t.Fatalf("re-ingest stored events: broadleaf %+v shopizer %+v", reB, reS)
	}
	if reB.Deduped != sumB.Stored || reS.Deduped != sumS.Stored {
		t.Fatalf("re-ingest dedup mismatch: broadleaf %+v (stored %d), shopizer %+v (stored %d)",
			reB, sumB.Stored, reS, sumS.Stored)
	}

	patternsBefore := getBody(t, d.base+"/history/patterns")
	d.stop(t)

	// Restart: a fresh daemon over the same store file.
	d2 := startDaemon(t, storePath)
	defer d2.stop(t)
	patternsAfter := getBody(t, d2.base+"/history/patterns")
	if !bytes.Equal(patternsBefore, patternsAfter) {
		t.Fatalf("patterns changed across restart:\nbefore:\n%s\nafter:\n%s", patternsBefore, patternsAfter)
	}

	var p history.PatternSummary
	if err := json.Unmarshal(patternsAfter, &p); err != nil {
		t.Fatal(err)
	}
	if p.Events != stored {
		t.Errorf("patterns events = %d, want %d", p.Events, stored)
	}
	// Every Table II catalog entry must survive the restart.
	classes := map[string]history.Rollup{}
	for _, r := range p.Classes {
		classes[r.Key] = r
	}
	for _, id := range []string{
		"d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8", "d9", "d10",
		"d11", "d12", "d13", "d14", "d15", "d16", "d17", "d18",
	} {
		if r, ok := classes[id]; !ok || r.Events == 0 {
			t.Errorf("catalog entry %s missing from restarted history (%+v)", id, r)
		}
	}
	// Per-table rollups: sightings doubled by the re-ingest, and the
	// catalog's central tables are present.
	tables := map[string]history.Rollup{}
	for _, r := range p.Tables {
		tables[r.Key] = r
		if r.Seen != 2*r.Events {
			t.Errorf("table %s: seen %d, want 2x events %d", r.Key, r.Seen, r.Events)
		}
	}
	for _, tbl := range []string{"Orders", "OrderItem", "Customer"} {
		if _, ok := tables[tbl]; !ok {
			t.Errorf("table %s missing from rollups", tbl)
		}
	}

	// And the restarted daemon still dedups the same corpus.
	re := ingestBatch(t, d2.base, "broadleaf", broadleaf)
	if re.Stored != 0 || re.Deduped != sumB.Stored {
		t.Fatalf("post-restart re-ingest: %+v", re)
	}
}
