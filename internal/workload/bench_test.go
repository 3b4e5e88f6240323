package workload_test

import (
	"math/rand"
	"testing"

	"weseer/internal/concolic"
	"weseer/internal/minidb"
)

// TestNativeCallAllocs pins what one API call allocates on the path of the
// load workload and Figs. 10/11 with the engine off, averaged over whole
// customer cycles driven as BenchmarkBroadleafFlow drives them. The ceiling
// is the measured 103 plus 10 %; it was 144 (132 measured) while minidb
// stored Datum slices, and 247 while the read cache built a symbolic array
// per table and entities were maps. A symbolic structure built with the
// engine off, or a per-statement buffer coming back, trips it.
func TestNativeCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const ceiling = 113
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
