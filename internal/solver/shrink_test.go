package solver

import (
	"reflect"
	"testing"
)

// TestShrinkCoreCapped exercises the chunked core minimizer directly:
// it must reduce to a minimal unsatisfiable subset when the set fits
// under the cap, and return the input untouched when it does not.
func TestShrinkCoreCapped(t *testing.T) {
	// "UNSAT" iff the candidate still contains both 3 and 7.
	pairUnsat := func(ids []int) bool {
		has3, has7 := false, false
		for _, id := range ids {
			has3 = has3 || id == 3
			has7 = has7 || id == 7
		}
		return has3 && has7
	}

	var s session // one workspace, reused call after call
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	got := s.shrinkCore(ids, 192, pairUnsat)
	if !reflect.DeepEqual(got, []int{3, 7}) {
		t.Fatalf("expected minimal core [3 7], got %v", got)
	}

	// Over the cap: the set is returned as-is, with zero oracle calls.
	calls := 0
	counting := func(ids []int) bool { calls++; return true }
	got = s.shrinkCore(ids, len(ids)-1, counting)
	if !reflect.DeepEqual(got, ids) || calls != 0 {
		t.Fatalf("expected capped pass-through without oracle calls, got %v after %d calls", got, calls)
	}

	// Exactly at the cap the minimizer still runs.
	got = s.shrinkCore(ids, len(ids), pairUnsat)
	if !reflect.DeepEqual(got, []int{3, 7}) {
		t.Fatalf("expected shrinking at cap boundary, got %v", got)
	}

	// A singleton core survives (len(core) > 1 guard).
	oneUnsat := func(ids []int) bool {
		for _, id := range ids {
			if id == 5 {
				return true
			}
		}
		return false
	}
	got = s.shrinkCore(ids, 192, oneUnsat)
	if !reflect.DeepEqual(got, []int{5}) {
		t.Fatalf("expected singleton core [5], got %v", got)
	}

	// The input slice itself is never mutated.
	orig := []int{9, 8, 7, 3, 1}
	want := append([]int(nil), orig...)
	s.shrinkCore(orig, 192, pairUnsat)
	if !reflect.DeepEqual(orig, want) {
		t.Fatalf("input mutated: %v", orig)
	}
}
