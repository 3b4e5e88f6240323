package workload_test

import (
	"math/rand"
	"runtime"
	"testing"

	"weseer/internal/concolic"
	"weseer/internal/minidb"
)

// TestNativeCallAllocs pins what one API call allocates on the path of the
// load workload and Figs. 10/11 with the engine off, averaged over whole
// customer cycles driven as BenchmarkBroadleafFlow drives them. The ceiling
// is the measured 65.0 plus 10 %; it was 91 (82.3 measured) while minidb
// copied each result out and allocated it, 107 (97.6 measured) while each
// read cache kept two Go maps in a Go map per session and each result set
// was an allocation of its own, 113 (103 measured) while minidb's indexes
// stored a string per row, 144 (132 measured) while minidb stored Datum
// slices, and 247 while the read cache built a symbolic array per table
// and entities were maps. A symbolic structure built with the engine off,
// or a per-statement buffer coming back, trips it.
func TestNativeCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const ceiling = 72
	_, flow := open(t, "broadleaf", minidb.Config{})
	next := flow(1, rand.New(rand.NewSource(7)))
	e := concolic.New(concolic.ModeOff)
	cycle := func() {
		for i := 0; i < 7; i++ {
			if _, err := next()(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	perCall := testing.AllocsPerRun(50, cycle) / 7 // after one warm-up cycle
	t.Logf("%.1f allocations per API call", perCall)
	if perCall > ceiling {
		t.Errorf("an API call allocates %.1f times, ceiling %d", perCall, ceiling)
	}
}

// TestLoadHeapObjects pins what the database keeps per API call: after
// 50 K calls of one client on the load workload's path with the engine
// off, the objects live on the heap beyond those before the first call.
// While minidb's B-tree items were a key string and a row string each, a
// call left 9.19 objects behind for good; index pages bring it to the
// measured 0.36, and the ceiling is that plus 10 %. A per-entry string or
// slice coming back into the indexes trips it.
func TestLoadHeapObjects(t *testing.T) {
	if raceEnabled {
		t.Skip("50 K calls under the race detector take too long")
	}
	const calls, ceiling = 50_000, 0.40
	db, flow := open(t, "broadleaf", minidb.Config{})
	next := flow(1, rand.New(rand.NewSource(7)))
	e := concolic.New(concolic.ModeOff)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := next()(e); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(db)
	perCall := float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / calls
	t.Logf("%.2f heap objects per API call (%.1f MB live)", perCall, float64(after.HeapAlloc)/(1<<20))
	if perCall > ceiling {
		t.Errorf("an API call leaves %.2f objects on the heap, ceiling %.2f", perCall, ceiling)
	}
}

// BenchmarkBroadleafFlow is one client walking the customer flow on
// unfixed Broadleaf: time and allocations per API call of the whole
// statement path (orm, driver, executor, lock table) without contention.
func BenchmarkBroadleafFlow(b *testing.B) {
	_, flow := open(b, "broadleaf", minidb.Config{})
	next := flow(1, rand.New(rand.NewSource(7)))
	e := concolic.New(concolic.ModeOff)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := next()(e); err != nil {
			b.Fatal(err)
		}
	}
}
