package minidb_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/lockmodel"
	"weseer/internal/minidb"
	"weseer/internal/schema"
	"weseer/internal/sqlast"
	"weseer/internal/trace"
)

var updateCoverage = flag.Bool("update-coverage", false, "rewrite testdata/lock_coverage.golden")

// TestLockCoverage checks the lock model (Alg. 2, internal/lockmodel)
// against the locks the engine grants. It collects the unit tests of both
// model apps and of a generated corpus under concolic execution, pairs
// every recorded statement with the grants the engine made for it, and
// models the statement's locks as the analyzer does: for every table it
// accesses, GenExclusiveLocks if it writes the table, else GenSharedLocks
// with the recorded result emptiness (no plan filter).
//
// A grant is modeled when a TABLE lock covers its table, or a modeled lock
// lies on its (table, index) and is exclusive whenever the grant is X or
// II. A grant the statement was given that is not modeled is unsound: the
// analyzer cannot see the conflict it causes, so each one is listed under
// its statement and named in DESIGN.md's "Known deviations". A modeled
// lock that matches, by the same rule, nothing the transaction holds after
// the statement is the model's over-approximation; each statement counts
// them. (A statement is given no grant for a lock its transaction already
// holds, so a re-read would otherwise count as over-approximation.)
// Rewrite the file (-update-coverage) only for a deliberate change to the
// lock model or the locking protocol.
func TestLockCoverage(t *testing.T) {
	var out bytes.Buffer
	for _, spec := range []string{"broadleaf", "shopizer", "gen:7,templates=96"} {
		app, err := apps.Open(spec, apps.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// held is everything the transaction holds after the statement; the
		// statement's own grants are its last fresh ones.
		type executed struct {
			st    sqlast.Stmt
			held  []minidb.Grant
			fresh int
		}
		var ran []executed
		listed := map[*minidb.Txn]int{}
		app.DB().SetAfterStmt(func(txn *minidb.Txn, st sqlast.Stmt) {
			held := minidb.GrantsOf(txn)
			ran = append(ran, executed{st, held, len(held) - listed[txn]})
			listed[txn] = len(held)
		})
		traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
		if err != nil {
			t.Fatal(err)
		}

		// Both the callbacks and the recorded statements arrive in program
		// order; a statement that failed (a duplicate key) ran but was not
		// recorded.
		var body bytes.Buffer
		var stmts, failed, grants, unmodeled, modeled, ungranted int
		next := 0
		for _, tr := range traces {
			fmt.Fprintf(&body, "## %s\n", tr.API)
			for _, txn := range tr.Txns {
				for _, st := range txn.Stmts {
					for next < len(ran) && ran[next].st != st.Parsed {
						fmt.Fprintf(&body, "failed: %s\n", ran[next].st)
						failed++
						next++
					}
					if next == len(ran) {
						t.Fatalf("%s: recorded statement %q has no engine execution", spec, st.SQL)
					}
					held := ran[next].held
					got := held[len(held)-ran[next].fresh:]
					next++
					locks := modeledLocks(st, app.Schema())
					notGranted := 0
					for _, l := range locks {
						if !slices.ContainsFunc(held, func(g minidb.Grant) bool { return models(l, g) }) {
							notGranted++
						}
					}
					fmt.Fprintf(&body, "%s\t%d modeled, %d not granted\n", st.Parsed, len(locks), notGranted)
					for _, g := range got {
						if !slices.ContainsFunc(locks, func(l lockmodel.Lock) bool { return models(l, g) }) {
							fmt.Fprintf(&body, "\tNOT MODELED %s %s %s %s %s\n", g.Table, g.Index, g.Key, kindOf(g), g.Mode)
							unmodeled++
						}
					}
					stmts, grants, modeled, ungranted = stmts+1, grants+len(got), modeled+len(locks), ungranted+notGranted
				}
			}
		}
		fmt.Fprintf(&out, "# %s: %d statements (%d failed), %d grants, %d not modeled; %d modeled locks, %d not granted\n",
			spec, stmts, failed, grants, unmodeled, modeled, ungranted)
		out.Write(body.Bytes())
	}

	golden := filepath.Join("testdata", "lock_coverage.golden")
	if *updateCoverage {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("lock coverage differs from %s; first difference at line %d (rerun with -update-coverage to see it)",
			golden, firstDiffLine(out.Bytes(), want))
	}
}

// modeledLocks are the statement's locks as the analyzer models them, one
// table at a time.
func modeledLocks(st *trace.Stmt, scm *schema.Schema) []lockmodel.Lock {
	var locks []lockmodel.Lock
	seen := map[string]bool{}
	for _, tab := range st.Parsed.Tables() {
		if seen[tab] {
			continue
		}
		seen[tab] = true
		if st.Parsed.WriteTable() == tab {
			locks = append(locks, lockmodel.GenExclusiveLocks(st.Parsed, scm, tab)...)
		} else {
			locks = append(locks, lockmodel.GenSharedLocks(st.Parsed, scm, tab, st.Res != nil && st.Res.Empty)...)
		}
	}
	return locks
}

// models reports whether modeled lock l accounts for grant g: a TABLE lock
// on g's table, or a lock on g's index that is exclusive if g is X or II.
func models(l lockmodel.Lock, g minidb.Grant) bool {
	if l.Table != g.Table {
		return false
	}
	if l.Gran == lockmodel.TableLock {
		return true
	}
	return l.Index != nil && l.Index.Name == g.Index && (l.Exclusive || g.Mode == minidb.LockS)
}
