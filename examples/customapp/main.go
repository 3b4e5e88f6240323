// Custom application walkthrough: how to wire your own application into
// WeSEER. A small ticketing service exposes Reserve(eventID, user): it
// checks remaining capacity with a locking SELECT, inserts a reservation,
// and buffers a counter update — a read-modify-write whose exclusive
// upgrade at commit deadlocks against a concurrent reservation of the
// same event. WeSEER diagnoses the Reserve–Reserve cycle statically from
// one unit test, and the example then reproduces it at runtime. Applying
// a fix is left as an exercise (the Broadleaf and Shopizer examples
// demonstrate the fixed variants).
//
//	go run ./examples/customapp
package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"weseer"
)

// Ticketing is the example application.
type Ticketing struct {
	db      *weseer.DB
	mapping *weseer.Mapping
}

// NewTicketing builds the schema, opens the database, and seeds events.
func NewTicketing() *Ticketing {
	scm := weseer.NewSchema()
	scm.AddTable("Event").
		Col("ID", weseer.Int).
		Col("CAPACITY", weseer.Int).
		Col("RESERVED", weseer.Int).
		PrimaryKey("ID")
	scm.AddTable("Reservation").
		Col("ID", weseer.Int).
		Col("EVENT_ID", weseer.Int).
		Col("USERNAME", weseer.Varchar).
		PrimaryKey("ID").
		Index("idx_res_event", "EVENT_ID")
	t := &Ticketing{db: weseer.OpenDB(scm, weseer.DBConfig{
		StatementDelay: 50 * time.Microsecond, // simulated network round trip
	}), mapping: weseer.NewMapping(scm)}

	e := weseer.NewEngine(weseer.ModeOff)
	s := weseer.NewSession(t.mapping, weseer.NewConn(e, t.db))
	err := s.Transactional(func() error {
		for i := int64(1); i <= 4; i++ {
			ev := s.NewEntity("Event")
			s.Set(ev, "ID", weseer.IntValue(i))
			s.Set(ev, "CAPACITY", weseer.IntValue(100000))
			s.Set(ev, "RESERVED", weseer.IntValue(0))
			s.Persist(ev)
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	return t
}

// Schema rebuilds the schema for the analyzer (it is cheap and pure).
func (t *Ticketing) Schema() *weseer.Schema { return t.mapping.Schema() }

// Reserve books one seat: a read-modify-write on the shared event row.
func (t *Ticketing) Reserve(e *weseer.Engine, eventID, user weseer.Value) error {
	s := weseer.NewSession(t.mapping, weseer.NewConn(e, t.db))
	return s.Transactional(func() error {
		ev := s.Find("Event", eventID) // locking SELECT: shared lock
		if ev == nil {
			return fmt.Errorf("no such event")
		}
		reserved, capacity := ev.Get("RESERVED"), ev.Get("CAPACITY")
		if e.If(e.Ge(reserved, capacity)) {
			return fmt.Errorf("sold out")
		}
		r := s.NewEntity("Reservation")
		s.Set(r, "ID", weseer.IntValue(t.db.NextID("Reservation")))
		s.Set(r, "EVENT_ID", eventID)
		s.Set(r, "USERNAME", user)
		s.Persist(r)
		// Buffered counter update: flushed at commit as an exclusive
		// lock upgrade on the row read above.
		s.Set(ev, "RESERVED", e.Add(reserved, weseer.IntValue(1)))
		return nil
	})
}

func main() {
	t := NewTicketing()

	// --- Static diagnosis ---------------------------------------------
	tests := []weseer.UnitTest{{
		Name: "Reserve",
		Run: func(e *weseer.Engine) error {
			return t.Reserve(e,
				e.MakeSymbolic("event_id", weseer.IntValue(1)),
				e.MakeSymbolic("user", weseer.StrValue("alice")))
		},
	}}
	traces, err := weseer.Collect(tests, weseer.ModeConcolic)
	if err != nil {
		panic(err)
	}
	res, err := weseer.AnalyzeContext(context.Background(), t.Schema(), traces)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Render())

	// --- Runtime reproduction ------------------------------------------
	// Two goroutines reserve seats for the same event concurrently; the
	// shared-lock read followed by the buffered exclusive upgrade is the
	// d14-class deadlock WeSEER just reported.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e := weseer.NewEngine(weseer.ModeOff)
			for i := 0; i < 40; i++ {
				t.Reserve(e, weseer.IntValue(1), weseer.StrValue(fmt.Sprintf("u%d-%d", g, i)))
			}
		}(g)
	}
	wg.Wait()
	st := t.db.StatsSnapshot()
	fmt.Printf("runtime reproduction: %d deadlocks, %d aborts out of %d commits\n",
		st.Deadlocks, st.Aborts, st.Commits)
	fmt.Println("\nfix options, per the paper's catalog: serialize with an application-level")
	fmt.Println("lock per event (f9), or replace the read-modify-write with a single UPDATE.")
}
