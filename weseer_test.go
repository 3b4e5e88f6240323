package weseer_test

import (
	"context"
	"strings"
	"testing"

	"weseer"
)

// TestFacadeEndToEnd drives the public API exactly as README's quickstart
// does: schema → database → ORM → concolic unit test → diagnosis.
func TestFacadeEndToEnd(t *testing.T) {
	scm := weseer.NewSchema()
	scm.AddTable("Device").
		Col("ID", weseer.Int).
		Col("NAME", weseer.Varchar).
		PrimaryKey("ID")
	db := weseer.OpenDB(scm, weseer.DBConfig{})
	mapping := weseer.NewMapping(scm)

	registerDevice := func(e *weseer.Engine, id, name weseer.Value) error {
		s := weseer.NewSession(mapping, weseer.NewConn(e, db))
		return s.Transactional(func() error {
			d := s.NewEntity("Device")
			s.Set(d, "ID", id)
			s.Set(d, "NAME", name)
			s.Merge(d)
			return nil
		})
	}
	tests := []weseer.UnitTest{{
		Name: "RegisterDevice",
		Run: func(e *weseer.Engine) error {
			return registerDevice(e,
				e.MakeSymbolic("device_id", weseer.IntValue(7)),
				e.MakeSymbolic("device_name", weseer.StrValue("sensor-7")))
		},
	}}
	traces, err := weseer.Collect(tests, weseer.ModeConcolic)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || traces[0].Stats.Statements != 2 {
		t.Fatalf("trace shape: %d traces, %d stmts", len(traces), traces[0].Stats.Statements)
	}
	res, err := weseer.AnalyzeContext(context.Background(), scm, traces)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deadlocks) != 1 {
		t.Fatalf("deadlocks = %d, want the merge gap-lock cycle", len(res.Deadlocks))
	}
	report := res.Render()
	for _, want := range []string{"RegisterDevice", "INSERT INTO Device", "SELECT * FROM Device"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// The fix (Persist) removes the report.
	db2 := weseer.OpenDB(scm, weseer.DBConfig{})
	fixedTests := []weseer.UnitTest{{
		Name: "RegisterDevice",
		Run: func(e *weseer.Engine) error {
			s := weseer.NewSession(mapping, weseer.NewConn(e, db2))
			return s.Transactional(func() error {
				d := s.NewEntity("Device")
				s.Set(d, "ID", e.MakeSymbolic("device_id", weseer.IntValue(7)))
				s.Set(d, "NAME", weseer.StrValue("x"))
				s.Persist(d)
				return nil
			})
		},
	}}
	fixedTraces, err := weseer.Collect(fixedTests, weseer.ModeConcolic)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := weseer.AnalyzeContext(context.Background(), scm, fixedTraces)
	if err != nil {
		t.Fatal(err)
	}
	if len(fixed.Deadlocks) != 0 {
		t.Fatalf("persist variant still reports %d deadlocks", len(fixed.Deadlocks))
	}
}

// TestFacadeStats checks the database counters surface through the facade.
func TestFacadeStats(t *testing.T) {
	scm := weseer.NewSchema()
	scm.AddTable("T").Col("ID", weseer.Int).PrimaryKey("ID")
	db := weseer.OpenDB(scm, weseer.DBConfig{})
	e := weseer.NewEngine(weseer.ModeOff)
	s := weseer.NewSession(weseer.NewMapping(scm), weseer.NewConn(e, db))
	if err := s.Transactional(func() error {
		en := s.NewEntity("T")
		s.Set(en, "ID", weseer.IntValue(1))
		s.Persist(en)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	st := db.StatsSnapshot()
	if st.Commits == 0 || st.Statements == 0 {
		t.Errorf("stats = %+v", st)
	}
}
