package workload_test

import (
	"math/rand"
	"testing"

	"weseer/internal/concolic"
	"weseer/internal/minidb"
)

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
