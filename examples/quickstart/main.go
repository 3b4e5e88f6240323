// Quickstart: diagnose a deadlock in a 40-line application.
//
// The app's RegisterDevice API uses the ORM's merge operation, which
// issues a SELECT for a (usually absent) key followed by an INSERT. Under
// row-level locking the empty SELECT takes a range lock, so two
// concurrent registrations block each other's INSERT: the classic d1
// deadlock of the WeSEER paper. WeSEER finds it from a single unit test.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"weseer"
)

func main() {
	// 1. Declare the schema and open the embedded database.
	scm := weseer.NewSchema()
	scm.AddTable("Device").
		Col("ID", weseer.Int).
		Col("NAME", weseer.Varchar).
		PrimaryKey("ID")
	db := weseer.OpenDB(scm, weseer.DBConfig{})
	mapping := weseer.NewMapping(scm)

	// 2. The application API, written against the ORM.
	registerDevice := func(e *weseer.Engine, id, name weseer.Value) error {
		s := weseer.NewSession(mapping, weseer.NewConn(e, db))
		return s.Transactional(func() error {
			d := s.NewEntity("Device")
			s.Set(d, "ID", id)
			s.Set(d, "NAME", name)
			s.Merge(d) // SELECT + INSERT: deadlock-prone (use Persist instead)
			return nil
		})
	}

	// 3. One unit test with symbolic inputs.
	tests := []weseer.UnitTest{{
		Name: "RegisterDevice",
		Run: func(e *weseer.Engine) error {
			id := e.MakeSymbolic("device_id", weseer.IntValue(7))
			name := e.MakeSymbolic("device_name", weseer.StrValue("sensor-7"))
			return registerDevice(e, id, name)
		},
	}}

	// 4. Collect traces under concolic execution and diagnose.
	traces, err := weseer.Collect(tests, weseer.ModeConcolic)
	if err != nil {
		panic(err)
	}
	res, err := weseer.AnalyzeContext(context.Background(), scm, traces)
	if err != nil {
		panic(err)
	}

	// 5. Report.
	fmt.Println(res.Render())
	if len(res.Deadlocks) > 0 {
		fmt.Println("fix: replace Merge with Persist (the paper's fix f1) and re-run — the report disappears.")
	}
}
