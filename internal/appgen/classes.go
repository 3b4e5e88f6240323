package appgen

import (
	"fmt"
	"strings"

	"weseer/internal/concolic"
	"weseer/internal/orm"
	"weseer/internal/schema"
)

// plantedInstance is one planted anti-pattern: its class, its index within
// the class, and its dedicated tables (never shared with fillers or other
// instances, so its conflict edges stay self-contained and classification
// is a table lookup).
type plantedInstance struct {
	Class  string
	Idx    int
	Tables []string
}

// plant appends the schema tables for one instance of class cl and
// returns it; plantedTemplates then compiles the matching
// transaction templates. Each planted shape is the *unfixed* variant of
// the paper's corresponding fix class:
//
//	f1  Merge on an absent key (SELECT gap lock, then INSERT)       — d1
//	f2  check-then-insert of an app-level lock row                  — d2
//	f3  range SELECT on a child index, then Persist a child         — d3
//	f4  write-behind UPDATE reordering vs an eager updater          — d5/d6
//	f5  parent point read + range-SELECT-then-Persist child         — d7
//	f6  two children scanned then persisted in reverse order        — d8
//	f7  emptiness-checked scan-then-insert                          — d10
//	f8  range scan + buffered UPDATE + Persist into one table       — d11
//	f9  shared read upgraded to exclusive UPDATE of the same row    — d14
//	f10 two UPDATEs at unordered symbolic rows                      — d17
//	f11 two-row reader racing a two-row updater                     — d18
func plant(s *schema.Schema, cl string, idx int) plantedInstance {
	p := fmt.Sprintf("%sx%d", strings.ToUpper(cl), idx)
	inst := plantedInstance{Class: cl, Idx: idx}
	kv := func(name string, cols ...string) string {
		t := s.AddTable(name).Col("ID", schema.Int)
		for _, c := range cols {
			t.Col(c, schema.Int)
		}
		t.PrimaryKey("ID")
		inst.Tables = append(inst.Tables, name)
		return name
	}
	child := func(name string) string {
		s.AddTable(name).
			Col("ID", schema.Int).
			Col("OWNER_ID", schema.Int).
			Col("AMOUNT", schema.Int).
			PrimaryKey("ID").
			Index("idx_"+name+"_owner", "OWNER_ID")
		inst.Tables = append(inst.Tables, name)
		return name
	}
	switch cl {
	case "f1":
		kv(p+"Reg", "VAL")
	case "f2":
		kv(p+"Lock", "LOCKED")
	case "f3", "f7":
		child(p + "Item")
	case "f4":
		kv(p+"Offer", "USES")
		kv(p+"Stat", "VIEWS")
	case "f5":
		kv(p+"Head", "TOTAL")
		child(p + "Line")
	case "f6":
		child(p + "Adj")
		child(p + "Det")
	case "f8":
		child(p + "Fee")
	case "f9":
		kv(p+"Prod", "QTY")
	case "f10":
		kv(p+"Inv", "QTY")
	case "f11":
		kv(p+"Cat", "QTY")
	default:
		panic("appgen: unknown class " + cl)
	}
	return inst
}

// plantedTemplates builds the templates for one planted instance. Seeded
// ids are 1..cfg.Rows (with OWNER_ID = ID on child tables), so "present"
// inputs stay within [1,rows] and "absent" inputs start at rows+1. A fix
// rewrites a template's body, never its name or inputs.
//
// When fixed is true each template is the mechanically-fixed variant of
// its class, mirroring the Table II fix column:
//
//	f1/f2   read-then-write → one atomic UPSERT (no gap-lock upgrade)
//	f3/f5/f7 deadlocking SELECTs move to an auto-commit probe session,
//	        leaving a single-statement write transaction
//	f4      buffered modifications reordered to match the eager path's
//	        acquisition order (feedback-edge inversion)
//	f6      probe-read scans + children persisted in scan order
//	f8      probe-read scan + eager UPDATEs before the commit-time
//	        INSERT (flush barrier: write-behind reordering removed)
//	f9      probe point read + single-UPDATE transaction (no S→X
//	        upgrade)
//	f10/f11 row pairs concretely swapped into ascending order with a
//	        strict lo < hi path condition guarding the second access —
//	        any crossing cycle then implies lo1<hi1=lo2<hi2=lo1, which
//	        the solver refutes (the fillers' opOrderedPair discipline)
//
// Each fixed variant preserves the unfixed template's per-statement
// read/write multiset (same statements, regrouped or reordered), except
// f1/f2 whose UPSERT rewrite preserves the net database effect instead;
// the fixapply property suite pins both invariants.
func (a *App) plantedTemplates(inst plantedInstance, fixed bool) []genTemplate {
	rows := a.cfg.Rows
	p := fmt.Sprintf("%sx%d", strings.ToUpper(inst.Class), inst.Idx)
	sess := func(e *concolic.Engine) *orm.Session {
		return orm.NewSession(a.mapping, concolic.NewConn(e, a.db))
	}
	one := func(name string, inputs []genInput, run func(e *concolic.Engine, in []concolic.Value) error) []genTemplate {
		return []genTemplate{{Name: name, Inputs: inputs, Run: run}}
	}
	present := func(name string, v int64) genInput {
		return genInput{Name: name, Val: v, Lo: 1, Hi: int64(rows)}
	}
	absentIn := func(name string) genInput {
		return genInput{Name: name, Val: int64(rows + 1), Lo: int64(rows + 1), Hi: int64(rows + 4)}
	}

	switch inst.Class {
	case "f1":
		// Merge on an absent key: the point SELECT range-locks the gap,
		// the flush INSERT then collides with a peer's gap lock. Fixed:
		// one atomic UPSERT takes the insert path directly.
		tab := inst.Tables[0]
		return one(p+"Merge", []genInput{absentIn("id")}, func(e *concolic.Engine, in []concolic.Value) error {
			s := sess(e)
			return s.Transactional(func() error {
				if fixed {
					_, err := s.Exec(
						fmt.Sprintf(`INSERT INTO %s (ID, VAL) VALUES (?, ?) ON DUPLICATE KEY UPDATE VAL = ?`, tab),
						[]concolic.Value{in[0], concolic.Int(1), concolic.Int(1)})
					return err
				}
				en := s.NewEntity(tab)
				s.Set(en, "ID", in[0])
				s.Set(en, "VAL", concolic.Int(1))
				s.Merge(en)
				return nil
			})
		})
	case "f2":
		// Check-then-insert: existence SELECT on the absent lock row,
		// then a buffered INSERT of it. Fixed: the UPSERT both creates
		// and takes the lock row in one statement.
		tab := inst.Tables[0]
		return one(p+"Acquire", []genInput{absentIn("id")}, func(e *concolic.Engine, in []concolic.Value) error {
			s := sess(e)
			return s.Transactional(func() error {
				if fixed {
					_, err := s.Exec(
						fmt.Sprintf(`INSERT INTO %s (ID, LOCKED) VALUES (?, ?) ON DUPLICATE KEY UPDATE LOCKED = ?`, tab),
						[]concolic.Value{in[0], concolic.Int(1), concolic.Int(1)})
					return err
				}
				locks := s.Query(fmt.Sprintf(`SELECT * FROM %s l WHERE l.ID = ?`, tab),
					[]concolic.Value{in[0]}, "l")
				if len(locks) == 0 {
					en := s.NewEntity(tab)
					s.Set(en, "ID", in[0])
					s.Set(en, "LOCKED", concolic.Int(1))
					s.Persist(en)
				} else {
					s.Set(locks[0], "LOCKED", concolic.Int(1))
				}
				return nil
			})
		})
	case "f3":
		// Range SELECT over the owner index, then Persist a new child
		// under the same owner. Fixed: the scan runs on an auto-commit
		// probe session, so its range lock is gone before the INSERT.
		tab := inst.Tables[0]
		return one(p+"AddItem", []genInput{present("owner", int64(1+inst.Idx%rows))},
			func(e *concolic.Engine, in []concolic.Value) error {
				s := sess(e)
				if fixed {
					sess(e).Query(fmt.Sprintf(`SELECT * FROM %s c WHERE c.OWNER_ID = ?`, tab),
						[]concolic.Value{in[0]}, "c")
				}
				return s.Transactional(func() error {
					if !fixed {
						s.Query(fmt.Sprintf(`SELECT * FROM %s c WHERE c.OWNER_ID = ?`, tab),
							[]concolic.Value{in[0]}, "c")
					}
					en := s.NewEntity(tab)
					s.Set(en, "ID", concolic.Int(a.db.NextID(tab)))
					s.Set(en, "OWNER_ID", in[0])
					s.Set(en, "AMOUNT", concolic.Int(1))
					s.Persist(en)
					return nil
				})
			})
	case "f4":
		// Write-behind reordering: the buffered path touches Offer
		// before Stat but flushes Stat's UPDATE first (first-modification
		// order); the eager path updates Offer then Stat directly.
		// Fixed: the buffered modifications are reordered so the flush
		// order matches the eager path (Offer first).
		offer, stat := inst.Tables[0], inst.Tables[1]
		buf := genTemplate{
			Name:   p + "Buffered",
			Inputs: []genInput{present("offer", 1), present("stat", 2)},
			Run: func(e *concolic.Engine, in []concolic.Value) error {
				s := sess(e)
				o := s.Find(offer, in[0])
				st := s.Find(stat, in[1])
				return s.Transactional(func() error {
					if fixed {
						s.Set(o, "USES", e.Add(o.Get("USES"), concolic.Int(1)))
						s.Set(st, "VIEWS", e.Add(st.Get("VIEWS"), concolic.Int(1)))
						return nil
					}
					s.Set(st, "VIEWS", e.Add(st.Get("VIEWS"), concolic.Int(1)))
					s.Set(o, "USES", e.Add(o.Get("USES"), concolic.Int(1)))
					return nil
				})
			},
		}
		eager := genTemplate{
			Name:   p + "Eager",
			Inputs: []genInput{present("offer", 1), present("stat", 2)},
			Run: func(e *concolic.Engine, in []concolic.Value) error {
				s := sess(e)
				return s.Transactional(func() error {
					if _, err := s.Exec(fmt.Sprintf(`UPDATE %s SET USES = ? WHERE ID = ?`, offer),
						[]concolic.Value{concolic.Int(7), in[0]}); err != nil {
						return err
					}
					_, err := s.Exec(fmt.Sprintf(`UPDATE %s SET VIEWS = ? WHERE ID = ?`, stat),
						[]concolic.Value{concolic.Int(7), in[1]})
					return err
				})
			},
		}
		return []genTemplate{buf, eager}
	case "f5":
		// Parent point read (shared lock) followed by a child
		// range-scan-then-Persist under the parent's id. Fixed: both
		// reads probe auto-commit; the transaction is the INSERT alone.
		head, line := inst.Tables[0], inst.Tables[1]
		return one(p+"Quote", []genInput{present("head", int64(1+inst.Idx%rows))},
			func(e *concolic.Engine, in []concolic.Value) error {
				s := sess(e)
				reads := func(rs *orm.Session) {
					rs.Query(fmt.Sprintf(`SELECT * FROM %s h WHERE h.ID = ?`, head),
						[]concolic.Value{in[0]}, "h")
					rs.Query(fmt.Sprintf(`SELECT * FROM %s l WHERE l.OWNER_ID = ?`, line),
						[]concolic.Value{in[0]}, "l")
				}
				if fixed {
					reads(sess(e))
				}
				return s.Transactional(func() error {
					if !fixed {
						reads(s)
					}
					en := s.NewEntity(line)
					s.Set(en, "ID", concolic.Int(a.db.NextID(line)))
					s.Set(en, "OWNER_ID", in[0])
					s.Set(en, "AMOUNT", concolic.Int(2))
					s.Persist(en)
					return nil
				})
			})
	case "f6":
		// Two children scanned Adj→Det but persisted Det→Adj: the flush
		// order crosses the scan order between the two tables. Fixed:
		// probe-read scans plus persists in scan order, so every
		// transaction acquires Adj before Det.
		adj, det := inst.Tables[0], inst.Tables[1]
		return one(p+"Reprice", []genInput{present("owner", int64(1+inst.Idx%rows))},
			func(e *concolic.Engine, in []concolic.Value) error {
				s := sess(e)
				reads := func(rs *orm.Session) {
					rs.Query(fmt.Sprintf(`SELECT * FROM %s a WHERE a.OWNER_ID = ?`, adj),
						[]concolic.Value{in[0]}, "a")
					rs.Query(fmt.Sprintf(`SELECT * FROM %s d WHERE d.OWNER_ID = ?`, det),
						[]concolic.Value{in[0]}, "d")
				}
				order := []string{det, adj}
				if fixed {
					reads(sess(e))
					order = []string{adj, det}
				}
				return s.Transactional(func() error {
					if !fixed {
						reads(s)
					}
					for _, tab := range order {
						en := s.NewEntity(tab)
						s.Set(en, "ID", concolic.Int(a.db.NextID(tab)))
						s.Set(en, "OWNER_ID", in[0])
						s.Set(en, "AMOUNT", concolic.Int(3))
						s.Persist(en)
					}
					return nil
				})
			})
	case "f7":
		// Scan-then-insert guarded by emptiness: the concrete owner has
		// no rows, so the INSERT follows the empty range's gap lock.
		// Fixed: the emptiness probe auto-commits first.
		tab := inst.Tables[0]
		return one(p+"Ensure", []genInput{absentIn("owner")},
			func(e *concolic.Engine, in []concolic.Value) error {
				s := sess(e)
				scan := func(rs *orm.Session) []*orm.Entity {
					return rs.Query(fmt.Sprintf(`SELECT * FROM %s c WHERE c.OWNER_ID = ?`, tab),
						[]concolic.Value{in[0]}, "c")
				}
				var got []*orm.Entity
				if fixed {
					got = scan(sess(e))
				}
				return s.Transactional(func() error {
					if !fixed {
						got = scan(s)
					}
					if len(got) == 0 {
						en := s.NewEntity(tab)
						s.Set(en, "ID", concolic.Int(a.db.NextID(tab)))
						s.Set(en, "OWNER_ID", in[0])
						s.Set(en, "AMOUNT", concolic.Int(4))
						s.Persist(en)
					}
					return nil
				})
			})
	case "f8":
		// Range scan, buffered UPDATE of a found row, and a Persist into
		// the same table: INSERT-before-UPDATE flush order vs the scan's
		// shared range lock. Fixed: the scan probes auto-commit and the
		// UPDATEs run eagerly before the commit-time INSERT — the flush
		// barrier restores program order.
		tab := inst.Tables[0]
		return one(p+"Surcharge", []genInput{present("owner", int64(1+inst.Idx%rows))},
			func(e *concolic.Engine, in []concolic.Value) error {
				s := sess(e)
				scan := func(rs *orm.Session) []*orm.Entity {
					return rs.Query(fmt.Sprintf(`SELECT * FROM %s f WHERE f.OWNER_ID = ?`, tab),
						[]concolic.Value{in[0]}, "f")
				}
				var got []*orm.Entity
				if fixed {
					got = scan(sess(e))
				}
				return s.Transactional(func() error {
					if fixed {
						for _, en := range got {
							if _, err := s.Exec(fmt.Sprintf(`UPDATE %s SET AMOUNT = ? WHERE ID = ?`, tab),
								[]concolic.Value{e.Add(en.Get("AMOUNT"), concolic.Int(1)), en.Get("ID")}); err != nil {
								return err
							}
						}
					} else {
						got = scan(s)
						for _, en := range got {
							s.Set(en, "AMOUNT", e.Add(en.Get("AMOUNT"), concolic.Int(1)))
						}
					}
					en := s.NewEntity(tab)
					s.Set(en, "ID", concolic.Int(a.db.NextID(tab)))
					s.Set(en, "OWNER_ID", in[0])
					s.Set(en, "AMOUNT", concolic.Int(5))
					s.Persist(en)
					return nil
				})
			})
	case "f9":
		// Read-modify-write lock upgrade: shared point SELECT, then an
		// exclusive UPDATE of the same symbolic row. Fixed: the read
		// probes auto-commit, leaving a single-UPDATE transaction.
		tab := inst.Tables[0]
		return one(p+"Reserve", []genInput{present("id", int64(1+inst.Idx%rows))},
			func(e *concolic.Engine, in []concolic.Value) error {
				s := sess(e)
				read := func(rs *orm.Session) []*orm.Entity {
					return rs.Query(fmt.Sprintf(`SELECT * FROM %s t WHERE t.ID = ?`, tab),
						[]concolic.Value{in[0]}, "t")
				}
				var got []*orm.Entity
				if fixed {
					got = read(sess(e))
				}
				return s.Transactional(func() error {
					if !fixed {
						got = read(s)
					}
					qty := concolic.Int(9)
					if len(got) > 0 {
						qty = e.Sub(got[0].Get("QTY"), concolic.Int(1))
					}
					_, err := s.Exec(fmt.Sprintf(`UPDATE %s SET QTY = ? WHERE ID = ?`, tab),
						[]concolic.Value{qty, in[0]})
					return err
				})
			})
	case "f10":
		// Two exclusive UPDATEs at unconstrained symbolic rows — the
		// inconsistent-order anti-pattern (no lo<hi discipline, unlike
		// the filler hubs). Fixed: the pair is concretely swapped into
		// ascending order and the second UPDATE runs under a strict
		// lo < hi path condition.
		tab := inst.Tables[0]
		return one(p+"Commit", []genInput{present("x", 1), present("y", 2)},
			func(e *concolic.Engine, in []concolic.Value) error {
				s := sess(e)
				upd := func(id concolic.Value) error {
					_, err := s.Exec(fmt.Sprintf(`UPDATE %s SET QTY = ? WHERE ID = ?`, tab),
						[]concolic.Value{concolic.Int(6), id})
					return err
				}
				return s.Transactional(func() error {
					if fixed {
						lo, hi := in[0], in[1]
						if !e.If(e.Lt(lo, hi)) {
							lo, hi = hi, lo
						}
						if err := upd(lo); err != nil {
							return err
						}
						if e.If(e.Lt(lo, hi)) {
							return upd(hi)
						}
						return nil
					}
					for _, id := range []concolic.Value{in[0], in[1]} {
						if err := upd(id); err != nil {
							return err
						}
					}
					return nil
				})
			})
	case "f11":
		// A two-row reader racing a two-row updater over the same table.
		// Fixed: both follow the ascending-order discipline of f10.
		tab := inst.Tables[0]
		orderedPair := func(e *concolic.Engine, in []concolic.Value, op func(id concolic.Value) error) error {
			if fixed {
				lo, hi := in[0], in[1]
				if !e.If(e.Lt(lo, hi)) {
					lo, hi = hi, lo
				}
				if err := op(lo); err != nil {
					return err
				}
				if e.If(e.Lt(lo, hi)) {
					return op(hi)
				}
				return nil
			}
			for _, id := range []concolic.Value{in[0], in[1]} {
				if err := op(id); err != nil {
					return err
				}
			}
			return nil
		}
		scan := genTemplate{
			Name:   p + "Scan",
			Inputs: []genInput{present("x", 1), present("y", 2)},
			Run: func(e *concolic.Engine, in []concolic.Value) error {
				s := sess(e)
				return s.Transactional(func() error {
					return orderedPair(e, in, func(id concolic.Value) error {
						s.Query(fmt.Sprintf(`SELECT * FROM %s t WHERE t.ID = ?`, tab),
							[]concolic.Value{id}, "t")
						return nil
					})
				})
			},
		}
		upd := genTemplate{
			Name:   p + "Update",
			Inputs: []genInput{present("x", 1), present("y", 2)},
			Run: func(e *concolic.Engine, in []concolic.Value) error {
				s := sess(e)
				return s.Transactional(func() error {
					return orderedPair(e, in, func(id concolic.Value) error {
						_, err := s.Exec(fmt.Sprintf(`UPDATE %s SET QTY = ? WHERE ID = ?`, tab),
							[]concolic.Value{concolic.Int(8), id})
						return err
					})
				})
			},
		}
		return []genTemplate{scan, upd}
	}
	panic("appgen: unknown class " + inst.Class)
}
