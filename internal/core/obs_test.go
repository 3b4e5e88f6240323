package core

import (
	"bytes"
	"context"
	"net/http"
	"reflect"
	"testing"
	"time"

	"weseer/internal/obs"
	"weseer/internal/obs/obstest"
	"weseer/internal/trace"
)

// obsTraces is pipelineTraces inflated with enough API variants that
// phase 3 has hundreds of chains — long enough for a mid-flight cancel
// to land while workers are still discharging, even on a single-CPU
// machine where the test's /progress probe can take hundreds of
// milliseconds while the solver pool is busy.
func obsTraces() []*trace.Trace {
	traces := pipelineTraces()
	for i := 0; i < 120; i++ {
		traces = append(traces, finishOrderVariant("Variant", 1000+10*i))
	}
	return traces
}

// TestObserverPreservesDeterminism is the tentpole's core guarantee:
// attaching an observer must not change a single byte of the report, at
// any parallelism, while the observer's own snapshot must agree with
// the report's funnel counters.
func TestObserverPreservesDeterminism(t *testing.T) {
	traces := pipelineTraces()
	plain, err := NewAnalyzer(fig1Schema(), WithParallelism(1)).
		AnalyzeContext(context.Background(), traces)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		o := obs.NewObserver()
		res, err := NewAnalyzer(fig1Schema(), WithParallelism(workers), WithObserver(o)).
			AnalyzeContext(context.Background(), traces)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.Deadlocks, res.Deadlocks) {
			t.Fatalf("p%d: observer changed the deadlock report", workers)
		}
		if plain.Stats.WithoutTimings() != res.Stats.WithoutTimings() {
			t.Fatalf("p%d: observer changed the funnel: %+v vs %+v",
				workers, plain.Stats.WithoutTimings(), res.Stats.WithoutTimings())
		}
		snap := o.Metrics.Snapshot()
		for i := range StatsTable {
			row := &StatsTable[i]
			if row.Metric == "" {
				continue
			}
			if got, want := snap[row.Metric], row.MetricValue(&res.Stats); got != float64(want) {
				t.Errorf("p%d: %s = %v, want %d (Result.Stats)", workers, row.Metric, got, want)
			}
		}
		if got := snap["weseer_solver_seconds_count"]; got != float64(res.Stats.SolverCalls) {
			t.Errorf("p%d: latency histogram count %v != SolverCalls %d", workers, got, res.Stats.SolverCalls)
		}

		// The trace must cover the whole pipeline: a root span, the
		// enumerate and discharge phases, per-chain spans, and at least
		// one solver span per busy worker thread.
		var buf bytes.Buffer
		if err := o.Tracer.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		sum, err := obstest.ValidateChromeTrace(&buf)
		if err != nil {
			t.Fatalf("p%d: invalid Chrome trace: %v", workers, err)
		}
		for _, name := range []string{"analyze", "enumerate", "discharge", "chain", "solve"} {
			if sum.NameCount[name] == 0 {
				t.Errorf("p%d: trace has no %q span", workers, name)
			}
		}
		if sum.NameCount["chain"] != res.Stats.GroupsSolved && sum.NameCount["chain"] == 0 {
			t.Errorf("p%d: no chain spans recorded", workers)
		}
		if got := o.Progress.Snapshot().Phase; got != "done" {
			t.Errorf("p%d: final progress phase = %q, want done", workers, got)
		}
	}
}

// TestObserverCancellationHygiene cancels an observed analysis while
// phase-3 workers are mid-discharge and asserts that everything the run
// spawned — the worker pool and the debug HTTP server — exits, leaving
// the process at its baseline goroutine count.
func TestObserverCancellationHygiene(t *testing.T) {
	obstest.CheckGoroutines(t)

	o := obs.NewObserver()
	ds, err := obs.StartDebugServer("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	done := make(chan error, 1)
	go func() {
		_, err := NewAnalyzer(fig1Schema(), WithParallelism(4), WithObserver(o)).
			AnalyzeContext(ctx, obsTraces())
		done <- err
	}()

	// Wait until phase 3 is demonstrably underway — at least one chain
	// discharged — then cancel mid-flight.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := o.Progress.Snapshot()
		if s.Phase == "fine" && s.ChainsDone >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("phase 3 never started: %+v", s)
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Exercise the live endpoint while workers are running.
	resp, err := http.Get("http://" + ds.Addr() + "/progress")
	if err != nil {
		t.Fatalf("GET /progress: %v", err)
	}
	resp.Body.Close()
	cancel()

	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("AnalyzeContext returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled analysis did not return within 10s")
	}
	if got := o.Progress.Snapshot().Phase; got != "aborted" {
		t.Errorf("final progress phase = %q, want aborted", got)
	}
	// All spawned goroutines — 4 pool workers, the HTTP server's listener
	// and handlers — must be gone once it is closed.
	if err := ds.Close(); err != nil {
		t.Errorf("debug server close: %v", err)
	}
}
