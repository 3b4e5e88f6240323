package broadleaf

import (
	"fmt"
	"math/rand"

	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/workload"
)

// customer is one shopper's inputs to the Table I calls.
type customer struct {
	name, email, password, phone string
	id                           int64 // assigned by Register
	first, second                int64 // the products Add1 and Add2/Add3 put in the cart
}

// calls is the Table I call sequence, in invocation order: Register once,
// Add three times (the first product, then the second twice, so the
// invocations take the Add1/Add2/Add3 paths as the database state
// evolves), then Ship, Payment, and Checkout. Each call marks its API
// inputs symbolic, exactly as the paper's collector prepares tests with
// make_symbolic; with the engine off that changes nothing.
func (a *App) calls() []appkit.Call[customer] {
	id := func(e *concolic.Engine, c *customer) concolic.Value {
		return e.MakeSymbolic("customer_id", concolic.Int(c.id))
	}
	return []appkit.Call[customer]{
		{Name: "Register", Run: func(e *concolic.Engine, c *customer) (err error) {
			c.id, err = a.Register(e,
				e.MakeSymbolic("username", concolic.Str(c.name)),
				e.MakeSymbolic("email", concolic.Str(c.email)),
				e.MakeSymbolic("password", concolic.Str(c.password)),
				e.MakeSymbolic("password_confirm", concolic.Str(c.password)))
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
			return a.Ship(e, id(e, c),
				e.MakeSymbolic("city", concolic.Str("nyc")),
				e.MakeSymbolic("phone", concolic.Str(c.phone)))
		}},
		{Name: "Payment", Run: func(e *concolic.Engine, c *customer) error {
			return a.Payment(e, id(e, c),
				e.MakeSymbolic("address", concolic.Str("1 Main St")),
				e.MakeSymbolic("phone", concolic.Str(c.phone)))
		}},
		{Name: "Checkout", Run: func(e *concolic.Engine, c *customer) error {
			return a.Checkout(e, id(e, c))
		}},
	}
}

// UnitTests returns the API unit tests of Table I: the calls for alice,
// who adds product 1, then product 2 twice (Register makes her customer 1
// on the fresh database).
func (a *App) UnitTests() []appkit.UnitTest {
	return appkit.UnitTests(a.calls(), &customer{
		name: "alice", email: "alice@example.com", password: "secret1", phone: "555-0101",
		first: 1, second: 2,
	})
}

// Flow returns the Fig. 10 client behavior: each client runs the calls for
// one new customer after another. Products are drawn from the shared
// catalog, so clients contend on the shared rows and index gaps behind
// d1–d13.
func (a *App) Flow() workload.Flow {
	return appkit.Flow(a.calls(),
		func(clientID int64, seq int) *customer {
			name := fmt.Sprintf("c%d-%d", clientID, seq)
			return &customer{name: name, email: name + "@x", password: "pw", phone: "555"}
		},
		func(c *customer, rng *rand.Rand) {
			c.first = 1 + rng.Int63n(int64(a.NumProducts))
			c.second = 1 + rng.Int63n(int64(a.NumProducts))
		})
}
