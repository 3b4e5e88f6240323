package obstest

import (
	"net/http"
	"runtime"
	"testing"
	"time"
)

// CheckGoroutines fails tb unless, after every cleanup registered later,
// no more goroutines run than when it was called. Exiting goroutines get
// five seconds, polled with backoff; a failure dumps every stack. The
// default client's idle connections, the test's own, are closed first.
func CheckGoroutines(tb testing.TB) {
	tb.Helper()
	baseline := runtime.NumGoroutine()
	tb.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		deadline := time.Now().Add(5 * time.Second)
		for wait := time.Millisecond; runtime.NumGoroutine() > baseline; wait = min(2*wait, 100*time.Millisecond) {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				tb.Fatalf("goroutines leaked: %d now vs %d baseline\n%s",
					runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(wait)
		}
	})
}
