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

// TestTemplatesConcurrent: phase-3 workers share the lock models settle
// builds, one per skeleton key, and the C-edge templates built over them,
// cached per pair of keys (the first stored is kept). Eight goroutines
// building the C-edge of every pair of the Table II statements from one
// shared set of models, each starting at a different pair and keeping one
// template per pair as core does, get what a serial run building every
// model afresh gets, by smt.TypedString: building a template or an
// instance reads the models and writes nothing they share.
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
			scm := app.Schema()
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
			edge := func(model func(int) *lockmodel.Model, tmpls *sync.Map, k int) string {
				x, y := k/n, k%n
				e := lockmodel.EdgeTemplate(model(x), model(y), "r1.")
				if v, loaded := tmpls.LoadOrStore(skels[x].Key+"\x00"+skels[y].Key, e); loaded {
					e = v.(*lockmodel.Edge)
				}
				vars := slices.Clone(e.Vars)
				slices.Sort(vars) // a set, listed in no set order
				return strconv.FormatBool(e.Collide) + " " +
					smt.TypedString(lockmodel.EdgeCond(e, skels[x].Names, skels[y].Names, "A1.", "A2.")) + " " + strings.Join(vars, ",")
			}
			fresh := func(i int) *lockmodel.Model { return lockmodel.ModelOf(skels[i], scm, false) }
			want := make([]string, n*n)
			for k := range want {
				want[k] = edge(fresh, &sync.Map{}, k)
			}

			byKey := map[string]*lockmodel.Model{}
			models := make([]*lockmodel.Model, n)
			for i, sk := range skels {
				if byKey[sk.Key] == nil {
					byKey[sk.Key] = lockmodel.ModelOf(sk, scm, false)
				}
				models[i] = byKey[sk.Key]
			}
			shared := func(i int) *lockmodel.Model { return models[i] }
			tmpls := &sync.Map{}
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
