package appkit

import (
	"math/rand"

	"weseer/internal/concolic"
	"weseer/internal/workload"
)

// Call is one Table I API call over a customer of type C. A model app
// writes its calls once, in invocation order: UnitTests runs them for the
// fixed unit-test customer, Flow for each load client's customers, so a
// load call carries the API name of the trace its unit test collects.
type Call[C any] struct {
	Name string
	Run  func(e *concolic.Engine, c *C) error
}

// UnitTests binds calls to the unit-test customer c.
func UnitTests[C any](calls []Call[C], c *C) []UnitTest {
	tests := make([]UnitTest, len(calls))
	for i, call := range calls {
		tests[i] = UnitTest{Name: call.Name, Run: func(e *concolic.Engine) error { return call.Run(e, c) }}
	}
	return tests
}

// Flow is the load side of calls (Figs. 10/11): each client runs them in
// order, over and over, one customer per pass. newCustomer makes a pass's
// customer from the client's id and the number of steps handed out so
// far; calls[0] registers it, and once that succeeds draw picks the rest
// of its inputs from the client's rng. The step after a calls[0] that did
// not succeed is calls[0] again, for a new customer.
func Flow[C any](calls []Call[C], newCustomer func(clientID int64, seq int) *C, draw func(c *C, rng *rand.Rand)) workload.Flow {
	return func(clientID int64, rng *rand.Rand) func() workload.Step {
		var c *C
		registered := false
		seq, i := 0, 0
		return func() workload.Step {
			seq++
			if i == len(calls) || !registered {
				c, registered, i = newCustomer(clientID, seq), false, 0
			}
			call, cust, first := calls[i], c, i == 0
			i++
			return func(e *concolic.Engine) (string, error) {
				err := call.Run(e, cust)
				if first && err == nil {
					registered = true
					draw(cust, rng)
				}
				return call.Name, err
			}
		}
	}
}
