package appgen

import (
	"math/rand"

	"weseer/internal/concolic"
	"weseer/internal/orm"
	"weseer/internal/workload"
)

// Flow returns the generated application's concurrent-client flow: each
// step picks one of the app's templates uniformly (the UnitTests order)
// and, when it runs, draws every input from its declared range. Planted
// "absent" inputs draw from a small window above the seeded rows, so
// concurrent clients collide on the same gaps and the planted deadlocks
// actually fire under load. Deterministic given the per-client seeded rng;
// every step runs under orm.Guard, as every unit test does, so flush-time
// aborts surface as retryable errors.
func (a *App) Flow() workload.Flow {
	return func(clientID int64, rng *rand.Rand) func() workload.Step {
		return func() workload.Step {
			g := &a.templates[rng.Intn(len(a.templates))]
			return func(e *concolic.Engine) (string, error) {
				in := make([]concolic.Value, len(g.Inputs))
				for i, gi := range g.Inputs {
					in[i] = concolic.Int(gi.Lo + rng.Int63n(gi.Hi-gi.Lo+1))
				}
				return g.Name, orm.Guard(func() error { return g.Run(e, in) })
			}
		}
	}
}
