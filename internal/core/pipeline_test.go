package core

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"weseer/internal/trace"
)

// finishOrderVariant is finishOrderTrace under another API name and code
// location: its cycles get distinct dedup keys (so they are discharged
// as separate groups) while their conflict formulas stay alpha-
// equivalent — exactly the repetition the memo table exists for.
func finishOrderVariant(api string, lineOff int) *trace.Trace {
	tr := finishOrderTrace()
	tr.API = api
	for _, txn := range tr.Txns {
		for _, st := range txn.Stmts {
			st.Trigger.Frames[0].Line += lineOff
		}
	}
	return tr
}

// pipelineTraces is a workload with several deadlocking APIs, so phase 3
// has real chains to discharge and alpha-equivalent formulas to memoize.
func pipelineTraces() []*trace.Trace {
	return []*trace.Trace{
		finishOrderTrace(), mergeTrace(), readOnlyTrace(),
		finishOrderVariant("Reorder", 100),
		finishOrderVariant("GiftCheckout", 200),
	}
}

func TestParallelReportDeterministic(t *testing.T) {
	// The acceptance bar for the parallel pipeline: at any worker count
	// the report is identical to the serial run — same deadlocks in the
	// same order, same models, same funnel counters, byte-identical
	// rendering.
	traces := pipelineTraces()
	serial, err := NewAnalyzer(fig1Schema(), WithParallelism(1)).
		AnalyzeContext(context.Background(), traces)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Deadlocks) == 0 {
		t.Fatal("workload should produce deadlocks")
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := NewAnalyzer(fig1Schema(), WithParallelism(workers)).
			AnalyzeContext(context.Background(), traces)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial.Deadlocks, par.Deadlocks) {
			t.Fatalf("parallelism=%d: deadlocks differ from serial run", workers)
		}
		if serial.Stats.WithoutTimings() != par.Stats.WithoutTimings() {
			t.Fatalf("parallelism=%d: funnel stats differ: %+v vs %+v",
				workers, serial.Stats.WithoutTimings(), par.Stats.WithoutTimings())
		}
		// Result.Render includes wall times, which legitimately vary;
		// everything below the stats line must be byte-identical.
		for i, d := range serial.Deadlocks {
			if d.Render() != par.Deadlocks[i].Render() {
				t.Fatalf("parallelism=%d: deadlock %d renders differently", workers, i)
			}
		}
	}
}

// TestSharedAnalyzerConcurrent runs one Analyzer from four goroutines at
// once: an Analyzer is configuration, every table an analysis builds
// belongs to that call, so the calls neither race (verify.sh runs this
// package under -race) nor see each other — each report is the serial
// one, byte for byte.
func TestSharedAnalyzerConcurrent(t *testing.T) {
	traces := pipelineTraces()
	a := NewAnalyzer(fig1Schema(), WithParallelism(2))
	want, err := a.AnalyzeContext(context.Background(), traces)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := a.AnalyzeContext(context.Background(), traces)
			if err != nil {
				t.Error(err)
				return
			}
			if got.Stats.WithoutTimings() != want.Stats.WithoutTimings() {
				t.Errorf("concurrent run's funnel differs: %+v vs %+v",
					got.Stats.WithoutTimings(), want.Stats.WithoutTimings())
			}
			got.Stats = want.Stats // the timings legitimately differ
			if got.Render() != want.Render() {
				t.Error("concurrent run's report differs from the analyzer's first")
			}
		}()
	}
	wg.Wait()
}

// TestForEachIndex pins the worker pool both fan-outs share: every index
// once, worker ids within 1..workers (1 on the serial path, which runs on
// the caller's goroutine), and an early stop on cancellation.
func TestForEachIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		const n = 40
		var seen [n]atomic.Int32
		forEachIndex(context.Background(), n, workers, func(i, tid int) {
			seen[i].Add(1)
			if tid < 1 || tid > max(workers, 1) || tid > n {
				t.Errorf("workers=%d: worker id %d", workers, tid)
			}
		})
		for i := range seen {
			if seen[i].Load() != 1 {
				t.Errorf("workers=%d: index %d visited %d times", workers, i, seen[i].Load())
			}
		}

		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int32
		forEachIndex(ctx, 1000, workers, func(i, tid int) {
			calls.Add(1)
			cancel()
		})
		// The feeder's select may still pick a ready worker over the done
		// channel a few times; it must not run the range out.
		if got := calls.Load(); got < 1 || got == 1000 {
			t.Errorf("workers=%d: %d of 1000 calls after an immediate cancel", workers, got)
		}
	}
}

func TestMemoServesRepeatedFormulas(t *testing.T) {
	traces := pipelineTraces()
	memo, err := NewAnalyzer(fig1Schema(), WithParallelism(1)).
		AnalyzeContext(context.Background(), traces)
	if err != nil {
		t.Fatal(err)
	}

	// Duplicated traces guarantee alpha-equivalent conflict formulas, so
	// the memo table must convert some solver calls into hits; the split
	// must account for every discharged group.
	if memo.Stats.MemoHits == 0 {
		t.Error("expected memo hits on a workload with duplicated traces")
	}
	if got := memo.Stats.SolverCalls + memo.Stats.MemoHits; got != memo.Stats.GroupsSolved {
		t.Errorf("SolverCalls+MemoHits = %d, want GroupsSolved = %d", got, memo.Stats.GroupsSolved)
	}

	// Memoization is an optimization, never a semantic change: every cycle
	// formula gets the verdict a direct solver call gives it. (The models
	// may differ — the solver picks an assignment for the canonical
	// formula rather than the original.) memo_corpus_test.go runs the same
	// differential over the Table II apps and a generated corpus.
	CheckMemoAgainstDirect(t, fig1Schema(), traces)
	for _, d := range memo.Deadlocks {
		if d.Model == nil {
			t.Errorf("deadlock %s: confirmed without a model", d.Key)
		}
	}
}

func TestAnalyzeContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := NewAnalyzer(fig1Schema(), WithParallelism(4)).
		AnalyzeContext(ctx, pipelineTraces())
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("canceled run must still return the partial result")
	}
	// Nothing may be reported as confirmed after an immediate cancel: the
	// discharge stage never ran to completion.
	if res.Stats.SolverCalls != 0 {
		t.Errorf("pre-canceled context still made %d solver calls", res.Stats.SolverCalls)
	}
}
