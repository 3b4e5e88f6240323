package core

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"weseer/internal/lockmodel"
	"weseer/internal/schema"
	"weseer/internal/smt"
	"weseer/internal/trace"
)

// directEdgeCond is how a C-edge condition was built before lockmodel
// memoized it per template: from copies of the two statements carrying
// their roles' prefixes, with a fresh lock model.
func directEdgeCond(scm *schema.Schema, x, y *trace.Stmt, rx int, px, py string, usePlans bool) smt.Expr {
	rowPrefix := [2]string{"r1.", "r2."}[rx]
	nm := lockmodel.NewNamer("rng." + rowPrefix)
	var alts []smt.Expr
	lockmodel.Oriented(renameStmt(x, px), renameStmt(y, py), func(w, r *trace.Stmt, tab string) bool {
		alts = append(alts, lockmodel.GenConflictCond(w, r, scm, tab, rowPrefix, nm, usePlans))
		return false
	})
	return smt.Or(alts...)
}

// CheckEdgeTemplatesMatchDirectBuild is the templates-vs-copies
// differential: for both C-edges of every coarse cycle of the traces, the
// condition run.edges renames from its template must be the direct
// build's by TypedString, and the template's Collide bit the statements'
// lockmodel.PotentialConflict — with and without WithConcretePlans, the
// edges instantiated on one worker and on four. The template count must
// not depend on the worker count. It returns the number of edges checked
// and of templates they came from (without plans). Exported for the corpus
// test in package core_test, which (unlike this package) may import the
// apps.
func CheckEdgeTemplatesMatchDirectBuild(t *testing.T, scm *schema.Schema, traces []*trace.Trace) (edges, templates int) {
	t.Helper()
	ctx := context.Background()
	for _, plans := range []bool{false, true} {
		built := -1
		for _, workers := range []int{1, 4} {
			opts := []Option{WithParallelism(workers)}
			if plans {
				opts = append(opts, WithConcretePlans())
			}
			r := NewAnalyzer(scm, opts...).newRun()
			chains, _, err := r.flattenEnumerate(ctx, traces)
			if err != nil {
				t.Fatal(err)
			}
			r.settle(chains)
			var cycles []Cycle
			for _, ch := range chains {
				cycles = append(cycles, ch.cycles...)
			}
			var bad atomic.Int64
			forEachIndex(ctx, len(cycles), r.workers, func(i, tid int) {
				c := cycles[i]
				tm := r.templates(c, &r.memo.scratch[tid])
				edges := r.edges(c, tm)
				for rx, e := range [2]struct {
					x, y   *trace.Stmt
					px, py string
				}{{c.S1b, c.S2a, c.T1.Prefix, c.T2.Prefix}, {c.S2b, c.S1a, c.T2.Prefix, c.T1.Prefix}} {
					want := directEdgeCond(scm, e.x, e.y, rx, e.px, e.py, plans)
					if got := edges[rx]; smt.TypedString(got) != smt.TypedString(want) {
						if bad.Add(1) <= 3 {
							t.Errorf("plans=%v p%d: cycle %d, C-edge %d:\ntemplate %s\ndirect   %s",
								plans, workers, i, rx+1, smt.TypedString(got), smt.TypedString(want))
						}
					}
					if got, want := tm[rx].Collide, lockmodel.PotentialConflict(e.x, e.y, scm, plans); got != want && bad.Add(1) <= 3 {
						t.Errorf("plans=%v p%d: cycle %d, C-edge %d: template Collide %v, PotentialConflict %v",
							plans, workers, i, rx+1, got, want)
					}
				}
			})
			if n := len(r.tmpls); built >= 0 && n != built {
				t.Errorf("plans=%v: %d edge templates on 4 workers, %d on 1", plans, n, built)
			}
			built = len(r.tmpls)
			if !plans {
				edges, templates = 2*len(cycles), built
			}
		}
	}
	return edges, templates
}

// FineAllocsPerGroup measures phase 3 on one worker: heap allocations and
// bytes of discharging the traces' chains, per solved group — the least of
// three fresh runs each, enumeration left out.
func FineAllocsPerGroup(t *testing.T, scm *schema.Schema, traces []*trace.Trace) (allocs, bytes float64) {
	t.Helper()
	ctx := context.Background()
	allocs, bytes = -1, -1
	for range 3 {
		r := NewAnalyzer(scm, WithParallelism(1)).newRun()
		chains, _, err := r.flattenEnumerate(ctx, traces)
		if err != nil {
			t.Fatal(err)
		}
		res := &Result{}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = r.discharge(ctx, chains, res)
		runtime.ReadMemStats(&after)
		if err != nil || res.Stats.GroupsSolved == 0 {
			t.Fatalf("discharge: %d groups solved, err %v", res.Stats.GroupsSolved, err)
		}
		n := float64(res.Stats.GroupsSolved)
		allocs, bytes = least(allocs, float64(after.Mallocs-before.Mallocs)/n), least(bytes, float64(after.TotalAlloc-before.TotalAlloc)/n)
	}
	return allocs, bytes
}

// least is the smaller of best and x, x when best is unset (negative).
func least(best, x float64) float64 {
	if best < 0 || x < best {
		return x
	}
	return best
}
