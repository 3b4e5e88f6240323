package shopizer

import (
	"fmt"
	"math/rand"

	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/workload"
)

// customer is one shopper's inputs to the Table I calls.
type customer struct {
	name, email   string
	id            int64 // assigned by Register
	first, second int64 // the products Add1 and Add2/Add3 put in the cart
}

// calls is the Table I call sequence for Shopizer, in invocation order:
// Register, the three Add invocations, Ship, and Checkout (Shopizer has no
// Payment API). The first product has the higher id, so the cart's
// natural most-recent-first iteration order differs from ascending id
// order — the inconsistency behind d17/d18. Each call marks its API
// inputs symbolic; with the engine off that changes nothing.
func (a *App) calls() []appkit.Call[customer] {
	id := func(e *concolic.Engine, c *customer) concolic.Value {
		return e.MakeSymbolic("customer_id", concolic.Int(c.id))
	}
	return []appkit.Call[customer]{
		{Name: "Register", Run: func(e *concolic.Engine, c *customer) (err error) {
			c.id, err = a.Register(e,
				e.MakeSymbolic("username", concolic.Str(c.name)),
				e.MakeSymbolic("email", concolic.Str(c.email)))
			return err
		}},
		{Name: "Add1", Run: func(e *concolic.Engine, c *customer) error {
			return a.Add(e, id(e, c), e.MakeSymbolic("product_id", concolic.Int(c.first)))
		}},
		{Name: "Add2", Run: func(e *concolic.Engine, c *customer) error {
			return a.Add(e, id(e, c), e.MakeSymbolic("product_id", concolic.Int(c.second)))
		}},
		{Name: "Add3", Run: func(e *concolic.Engine, c *customer) error {
			return a.Add(e, id(e, c), e.MakeSymbolic("product_id", concolic.Int(c.second)))
		}},
		{Name: "Ship", Run: func(e *concolic.Engine, c *customer) error {
			return a.Ship(e, id(e, c), e.MakeSymbolic("city", concolic.Str("sfo")))
		}},
		{Name: "Checkout", Run: func(e *concolic.Engine, c *customer) error {
			return a.Checkout(e, id(e, c))
		}},
	}
}

// UnitTests returns the Table I unit tests for Shopizer: the calls for
// bob, who adds product 2, then product 1 twice (Register makes him
// customer 1 on the fresh database).
func (a *App) UnitTests() []appkit.UnitTest {
	return appkit.UnitTests(a.calls(), &customer{name: "bob", email: "bob@example.com", first: 2, second: 1})
}

// Flow returns the Fig. 11 client behavior: each client runs the calls for
// one new customer after another, adding the higher-id product first.
// Clients contend on the shared Product rows behind d14–d18.
func (a *App) Flow() workload.Flow {
	return appkit.Flow(a.calls(),
		func(clientID int64, seq int) *customer {
			name := fmt.Sprintf("s%d-%d", clientID, seq)
			return &customer{name: name, email: name + "@x"}
		},
		func(c *customer, rng *rand.Rand) {
			p := 1 + rng.Int63n(int64(a.NumProducts))
			q := 1 + rng.Int63n(int64(a.NumProducts))
			c.first, c.second = max(p, q), min(p, q)
		})
}
