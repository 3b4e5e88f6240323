package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
)

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestDebugServerContentTypes pins the explicit Content-Type headers of
// the debug endpoints: Prometheus text exposition for /metrics,
// application/json for JSON endpoints. Scrapers and dashboards key off
// these — a missing header makes Prometheus reject the target.
func TestDebugServerContentTypes(t *testing.T) {
	o := NewObserver()
	o.Metrics.Counter("weseer_test_total", "a counter").Add(3)
	ds, err := StartDebugServer("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	base := "http://" + ds.Addr()

	resp, body := get(t, base+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != ContentTypePrometheus {
		t.Errorf("/metrics Content-Type = %q, want %q", got, ContentTypePrometheus)
	}
	if len(body) == 0 {
		t.Error("/metrics body empty")
	}

	resp, body = get(t, base+"/progress")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/progress status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != ContentTypeJSON {
		t.Errorf("/progress Content-Type = %q, want %q", got, ContentTypeJSON)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Errorf("/progress body is not JSON: %v\n%s", err, body)
	}
}

// TestDebugServerExtraRoutes verifies caller-mounted routes serve on
// the same listener as the built-in telemetry endpoints.
func TestDebugServerExtraRoutes(t *testing.T) {
	ds, err := StartDebugServer("127.0.0.1:0", nil, Route{
		Pattern: "/history/ping",
		Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", ContentTypeJSON)
			io.WriteString(w, `{"ok":true}`)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	resp, body := get(t, "http://"+ds.Addr()+"/history/ping")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("extra route status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != ContentTypeJSON {
		t.Errorf("extra route Content-Type = %q, want %q", got, ContentTypeJSON)
	}
	if string(body) != `{"ok":true}` {
		t.Errorf("extra route body %q", body)
	}
	// The built-ins must still be there.
	resp, _ = get(t, "http://"+ds.Addr()+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics alongside extras: status %d", resp.StatusCode)
	}
}
