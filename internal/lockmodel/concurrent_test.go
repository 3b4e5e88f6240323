package lockmodel_test

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/lockmodel"
	"weseer/internal/smt"
	"weseer/internal/trace"
)

// TestTemplatesConcurrent: phase-3 workers share one Templates, and fill
// its two memos — the locks per template, as they build C-edge templates,
// and the C-edge instances. Eight goroutines asking it for the C-edge of
// every pair of the Table II statements, each starting at a different
// pair and keeping one template per pair as core does (the first stored),
// get what a serial run over a fresh Templates gets, by smt.TypedString.
func TestTemplatesConcurrent(t *testing.T) {
	const workers = 8
	for _, name := range []string{"broadleaf", "shopizer"} {
		t.Run(name, func(t *testing.T) {
			app, err := apps.Open(name, apps.Options{})
			if err != nil {
				t.Fatal(err)
			}
			traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
			if err != nil {
				t.Fatal(err)
			}
			var stmts []*trace.Stmt
			var skels []*lockmodel.Skeleton
			for _, tr := range traces {
				for _, txn := range tr.Txns {
					for _, st := range txn.Stmts {
						stmts, skels = append(stmts, st), append(skels, lockmodel.SkeletonOf(st))
					}
				}
			}
			n := len(skels)
			edge := func(tm *lockmodel.Templates, tmpls *sync.Map, k int) string {
				x, y := skels[k/n], skels[k%n]
				e := tm.EdgeTemplate(x, y, "r1.")
				if v, loaded := tmpls.LoadOrStore(k, e); loaded {
					e = v.(*lockmodel.Edge)
				}
				vars := slices.Clone(e.Vars)
				slices.Sort(vars) // a set, listed in no set order
				return strconv.FormatBool(e.Collide) + " " +
					smt.TypedString(tm.EdgeCond(e, x, y, "A1.", "A2.")) + " " + strings.Join(vars, ",")
			}
			serial := lockmodel.NewTemplates(app.Schema(), false)
			want := make([]string, n*n)
			for k := range want {
				want[k] = edge(serial, &sync.Map{}, k)
			}

			shared, tmpls := lockmodel.NewTemplates(app.Schema(), false), &sync.Map{}
			got := make([][]string, workers)
			var wg sync.WaitGroup
			for g := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[g] = make([]string, n*n)
					for i := range got[g] {
						k := (i + g*n*n/workers) % (n * n)
						got[g][k] = edge(shared, tmpls, k)
					}
				}()
			}
			wg.Wait()
			for g := range got {
				for k, s := range got[g] {
					if s != want[k] {
						t.Fatalf("goroutine %d, %s -- %s:\n got %s\nwant %s", g, stmts[k/n].SQL, stmts[k%n].SQL, s, want[k])
					}
				}
			}
		})
	}
}
