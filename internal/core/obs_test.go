package core

import (
	"bytes"
	"context"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"weseer/internal/obs"
	"weseer/internal/obs/obstest"
	"weseer/internal/schema"
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
	var instances, templates float64
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
		// The C-edge counters are as deterministic: two instances per
		// formula built — per skeleton miss and SAT hit, which
		// TestNonSATHitBuildsNoFormula pins — and one template per
		// distinct key at any parallelism.
		hits, builds := snap["weseer_edge_cache_hits_total"], snap["weseer_edge_cache_builds_total"]
		if workers == 1 {
			instances, templates = hits, builds
		}
		if hits < float64(2*res.Stats.CanonCalls) || hits != instances {
			t.Errorf("p%d: %v C-edge instances, %v on one worker, want at least 2 × %d skeleton misses",
				workers, hits, instances, res.Stats.CanonCalls)
		}
		if builds == 0 || builds != templates {
			t.Errorf("p%d: %v C-edge templates, %v on one worker", workers, builds, templates)
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

// TestSchemaErrorClosesSpans: a batch the schema cannot describe is an
// error and no result. flatten, which checks it, runs inside the enumerate
// span and EnumTime's clock, so the failure closes both spans, marks the
// run aborted and publishes no funnel number.
func TestSchemaErrorClosesSpans(t *testing.T) {
	o := obs.NewObserver()
	res, err := NewAnalyzer(schema.New(), WithObserver(o)).AnalyzeContext(context.Background(), pipelineTraces())
	if err == nil || res != nil {
		t.Fatalf("analysis against an empty schema: result %v, error %v; want no result and an error", res, err)
	}
	var buf bytes.Buffer
	if err := o.Tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := obstest.ValidateChromeTrace(&buf)
	if err != nil {
		t.Fatalf("invalid Chrome trace: %v", err)
	}
	for _, name := range []string{"analyze", "enumerate"} {
		if sum.NameCount[name] != 1 {
			t.Errorf("trace has %d %q spans, want 1", sum.NameCount[name], name)
		}
	}
	if got := o.Progress.Snapshot().Phase; got != "aborted" {
		t.Errorf("progress phase = %q, want aborted", got)
	}
	snap := o.Metrics.Snapshot()
	for i := range StatsTable {
		if m := StatsTable[i].Metric; m != "" && snap[m] != 0 {
			t.Errorf("%s = %v after a rejected batch, want 0", m, snap[m])
		}
	}
}

// TestObserverConcurrentChainCounts: analyses sharing one observer, as a
// daemon's concurrent ingests do, only add to the chain gauges, so once
// all are done, done equals total equals the chains of each run counted
// alone.
func TestObserverConcurrentChainCounts(t *testing.T) {
	batches := [][]*trace.Trace{pipelineTraces(), obsTraces(), pipelineTraces(), obsTraces()}
	chains := func(o *obs.Observer, traces []*trace.Trace) {
		if _, err := NewAnalyzer(fig1Schema(), WithParallelism(2), WithObserver(o)).
			AnalyzeContext(context.Background(), traces); err != nil {
			t.Error(err)
		}
	}
	var want float64
	for _, traces := range batches {
		o := &obs.Observer{Metrics: obs.NewRegistry()}
		chains(o, traces)
		want += o.Metrics.Snapshot()["weseer_chains_total"]
	}
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	var wg sync.WaitGroup
	for _, traces := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chains(o, traces)
		}()
	}
	wg.Wait()
	snap := o.Metrics.Snapshot()
	if total, done := snap["weseer_chains_total"], snap["weseer_chains_done"]; total != want || done != want {
		t.Errorf("after %d concurrent analyses: chains total %v, done %v; want both %v", len(batches), total, done, want)
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
	// The chains the cancellation kept from starting leave the total: none
	// is in flight once the run has returned.
	if snap := o.Metrics.Snapshot(); snap["weseer_chains_total"] != snap["weseer_chains_done"] {
		t.Errorf("canceled run left chains total %v, done %v", snap["weseer_chains_total"], snap["weseer_chains_done"])
	}
	// All spawned goroutines — 4 pool workers, the HTTP server's listener
	// and handlers — must be gone once it is closed.
	if err := ds.Close(); err != nil {
		t.Errorf("debug server close: %v", err)
	}
}
