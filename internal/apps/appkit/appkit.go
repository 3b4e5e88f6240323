// Package appkit provides the shared harness the model applications
// (Broadleaf, Shopizer) expose to WeSEER: one list of Table I calls that
// yields both the API unit tests for trace collection and the load
// clients' flow (calls.go), sequential collection semantics matching the
// paper (each unit test's resulting database state is the next one's
// initial state), and the Table II catalog and fix-name helpers.
package appkit

import (
	"fmt"

	"weseer/internal/concolic"
	"weseer/internal/trace"
)

// UnitTest is one API unit test: it marks the API inputs symbolic and
// invokes the API once. Name becomes the trace's API name (Table I uses
// Add1/Add2/Add3 to distinguish the three Add invocations' paths).
type UnitTest struct {
	Name string
	Run  func(e *concolic.Engine) error
}

// Collect runs the unit tests sequentially on one engine, which carves
// every trace's records from its arenas. The tests share the application's
// database, so state accumulates exactly as in the paper's methodology.
func Collect(tests []UnitTest, mode concolic.Mode, opts ...concolic.Option) ([]*trace.Trace, error) {
	var out []*trace.Trace
	e := concolic.New(mode, opts...)
	for _, ut := range tests {
		e.StartConcolic(ut.Name)
		err := ut.Run(e)
		tr := e.EndConcolic()
		if err != nil {
			return nil, fmt.Errorf("appkit: unit test %s: %w", ut.Name, err)
		}
		if tr != nil {
			out = append(out, tr)
		}
	}
	return out, nil
}

// Expectation describes one Table II deadlock: its id, the APIs that can
// form it, the conflict table, and the fix that removes it.
type Expectation struct {
	ID    string // "d1" .. "d18"
	Apps  string // "Broadleaf" or "Shopizer"
	APIs  string // rendered API pair, e.g. "Register — Register"
	Desc  string
	Fix   string // e.g. "f1: Use correct ORM operation"
	Table string // the conflict table identifying the deadlock
}
