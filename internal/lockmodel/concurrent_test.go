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

// TestTemplatesConcurrent: phase-3 workers share one Templates. Eight
// goroutines asking it for the C-edges and the lock filter of every pair
// of the Table II statements, each starting at a different pair, get what
// a serial build over a fresh memo gets, by smt.TypedString.
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
			for _, tr := range traces {
				for _, txn := range tr.Txns {
					stmts = append(stmts, txn.Stmts...)
				}
			}
			n := len(stmts)
			edge := func(tm *lockmodel.Templates, k int) string {
				x, y := stmts[k/n], stmts[k%n]
				e := tm.EdgeCond(x, y, "A1.", "A2.", "r1.")
				vars := slices.Clone(tm.EdgeTemplate(x, y, "r1.").Vars)
				slices.Sort(vars) // a set, listed in no set order
				return strconv.FormatBool(tm.PotentialConflict(x, y)) + " " +
					smt.TypedString(e.Cond) + " " + strings.Join(vars, ",")
			}
			serial := lockmodel.NewTemplates(app.Schema(), false)
			want := make([]string, n*n)
			for k := range want {
				want[k] = edge(serial, k)
			}

			shared := lockmodel.NewTemplates(app.Schema(), false)
			got := make([][]string, workers)
			var wg sync.WaitGroup
			for g := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[g] = make([]string, n*n)
					for i := range got[g] {
						k := (i + g*n*n/workers) % (n * n)
						got[g][k] = edge(shared, k)
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
			if got, want := shared.EdgeTemplates(), serial.EdgeTemplates(); got != want {
				t.Errorf("%d edge templates built concurrently, %d serially", got, want)
			}
		})
	}
}
