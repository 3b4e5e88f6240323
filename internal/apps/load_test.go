package apps

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"weseer/internal/appgen"
	"weseer/internal/apps/appkit"
	"weseer/internal/apps/broadleaf"
	"weseer/internal/apps/shopizer"
	"weseer/internal/concolic"
	"weseer/internal/minidb"
	"weseer/internal/orm"
	"weseer/internal/schema"
)

// sqlSeed is the seeding every app ran before it loaded its fixtures
// through minidb.Load: one ORM transaction of persisted entities with
// recording off, then the app's BumpID calls. It stays as Load's oracle.
func sqlSeed(app App, db *minidb.DB) error {
	s := orm.NewSession(orm.NewMapping(app.Schema()), concolic.NewConn(concolic.New(concolic.ModeOff), db))
	persist := func(table string, cols ...any) {
		en := s.NewEntity(table)
		for i := 0; i < len(cols); i += 2 {
			s.Set(en, cols[i].(string), concolic.Int(int64(cols[i+1].(int))))
		}
		s.Persist(en)
	}
	var bump func()
	err := s.Transactional(func() error {
		switch a := app.(type) {
		case *broadleaf.App:
			for i := 1; i <= a.NumProducts; i++ {
				persist("Product", "ID", i, "QTY", 1_000_000, "PRICE", 10+i)
				persist("Offer", "ID", i, "USES", 0)
				persist("FulfillmentOption", "ID", i, "USES", 0)
				persist("OfferStat", "ID", i, "VIEWS", 0)
				persist("FulfillmentStat", "ID", i, "VIEWS", 0)
			}
			bump = func() { db.BumpID("Product", int64(a.NumProducts)) }
		case *shopizer.App:
			for i := 1; i <= a.NumProducts; i++ {
				persist("Product", "ID", i, "QTY", 1_000_000, "PRICE", 5+i, "SOLD", 0, "POPULARITY", 0)
			}
			bump = func() { db.BumpID("Product", int64(a.NumProducts)) }
		case *appgen.App:
			rows := a.Config().Rows
			for _, t := range a.Schema().Tables() {
				for i := 1; i <= rows; i++ {
					en := s.NewEntity(t.Name)
					for _, c := range t.Columns {
						v := concolic.Int(int64(i))
						if c.Type == schema.Varchar {
							v = concolic.Str(fmt.Sprintf("r%d", i))
						}
						s.Set(en, c.Name, v)
					}
					s.Persist(en)
				}
			}
			bump = func() {
				for _, t := range a.Schema().Tables() {
					db.BumpID(t.Name, int64(rows))
				}
			}
		default:
			return fmt.Errorf("no SQL seed for %s", app.Name())
		}
		return nil
	})
	if err == nil {
		bump()
	}
	return err
}

// storage renders every table of db, row by row in primary-key order, each
// datum by its nullness, kind and value — INSERT coerces no kind, so
// broadleaf's DECIMAL PRICE holds integer datums — followed by the table's
// next auto-increment id, which it consumes.
func storage(db *minidb.DB) string {
	var b strings.Builder
	for _, t := range db.Schema().Tables() {
		fmt.Fprintf(&b, "%s\n", t.Name)
		for _, row := range db.TableRows(t.Name) {
			for _, d := range row {
				fmt.Fprintf(&b, "%t %d %s|", d.Null, d.Kind, d)
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "next id %d\n", db.NextID(t.Name))
	}
	return b.String()
}

// TestLoadMatchesSQLSeed: what each app's seed loads through minidb.Load
// is, row for row and datum for datum, what its former ORM seeding
// transaction stored, and its auto-increment floors are the same.
func TestLoadMatchesSQLSeed(t *testing.T) {
	for _, spec := range []string{"broadleaf", "shopizer", "gen:7,templates=96", "gen:7,templates=1056"} {
		app, err := Open(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		oracle := minidb.Open(app.Schema(), minidb.Config{})
		if err := sqlSeed(app, oracle); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		got, want := storage(app.DB()), storage(oracle)
		if got != want {
			t.Errorf("%s: loaded storage differs from the SQL seed's", spec)
			gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Errorf("line %d: got %s, want %s", i+1, gl[i], wl[i])
					break
				}
			}
		}
	}
}

// TestOpenAllocs pins what opening the 1,056-template corpus allocates:
// the measured 34.4 K plus 10 %. It was 37.5 K while minidb.Load made a
// string of every index key, 46.2 K while appgen rebuilt a
// filler's body for every guard and the parser grew its tokens by append,
// 91.3 K while the apps seeded through one ORM transaction of INSERTs, and
// 54.6 K while appgen formatted one SQL string per op rather than per (op
// kind, table); an SQL-path seed, a per-op format or a per-guard copy
// coming back trips it.
func TestOpenAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const ceiling = 37_800
	got := testing.AllocsPerRun(3, func() {
		if _, err := Open("gen:7,templates=1056", Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("apps.Open(gen:7,templates=1056) allocates %.0f times (ceiling %d)", got, ceiling)
	if got > ceiling {
		t.Errorf("apps.Open(gen:7,templates=1056) allocates %.0f times, ceiling %d", got, ceiling)
	}
}

// TestCollectAllocs pins what collecting gen:7,templates=96 allocates per
// recorded statement, every call site already in the call-site table:
// the statement's record, its parameters, result aliases and the
// symbolic state around it. Objects: the measured 15.0 plus 5 % (19.2
// while minidb copied each result out and every fetched cell's alias was
// an expression of its own, 29.0 while every unit test had an engine of
// its own, each record was an allocation of its own and a read cache kept
// two Go maps, 31.4 while a result also recorded its concrete rows, 32.9
// while each fetched cell's alias was a string of its own). Bytes, which
// set how often the collector runs: the measured 1,915 plus 5 % (2,150
// before, 2,512 before the arenas). A capture that allocates, a record
// allocated by itself, a result copied or an alias built per cell again
// breaks it.
func TestCollectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const ceiling, bytesCeiling = 15.8, 2_010.0
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	collect := func() (allocs, bytes uint64, stmts int) {
		app, err := Open("gen:7,templates=96", Options{})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range traces {
			stmts += tr.Stats.Statements
		}
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, stmts
	}
	collect() // fills the call-site table and the prepared-statement cache
	allocs, bytes, stmts := collect()
	if stmts == 0 {
		t.Fatal("collection recorded no statement")
	}
	per, perBytes := float64(allocs)/float64(stmts), float64(bytes)/float64(stmts)
	t.Logf("appkit.Collect(gen:7,templates=96) allocates %.1f times and %.0f bytes per statement (%d and %d for %d; ceilings %.1f and %.0f)",
		per, perBytes, allocs, bytes, stmts, ceiling, bytesCeiling)
	if per > ceiling {
		t.Errorf("appkit.Collect(gen:7,templates=96) allocates %.1f times per statement, ceiling %.1f", per, ceiling)
	}
	if perBytes > bytesCeiling {
		t.Errorf("appkit.Collect(gen:7,templates=96) allocates %.0f bytes per statement, ceiling %.0f", perBytes, bytesCeiling)
	}
}

// BenchmarkOpen times apps.Open on the generated corpus at the
// templates=96 of the unit-test corpus and the 1,056 of the gen1056
// benchmark workload: generation, schema, database and seed.
func BenchmarkOpen(b *testing.B) {
	for _, spec := range []string{"gen:7,templates=96", "gen:7,templates=1056"} {
		b.Run(strings.TrimPrefix(spec, "gen:7,"), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := Open(spec, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
