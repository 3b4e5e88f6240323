package minidb_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"weseer/internal/apps"
	"weseer/internal/concolic"
	"weseer/internal/minidb"
	"weseer/internal/sqlast"
)

var updateFootprint = flag.Bool("update-footprint", false, "rewrite testdata/lock_footprint.golden")

// TestLockFootprint pins what the engine locks: every statement of both
// model apps' unit tests and of a generated corpus, run natively in
// program order, with each lock it was granted — table, index, entry key,
// record or gap, mode — read back from the lock table while the
// transaction still holds it. The file must not change when the lock
// table, the planner or the key encoding do: a lock request that is
// skipped, added, reordered or aimed at another resource shows up as a
// diff. Rewrite it (-update-footprint) only for a deliberate change to the
// locking protocol.
func TestLockFootprint(t *testing.T) {
	var buf bytes.Buffer
	for _, spec := range []string{"broadleaf", "shopizer", "gen:7,templates=96"} {
		app, err := apps.Open(spec, apps.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "# %s\n", spec)
		listed := map[*minidb.Txn]int{}
		app.DB().SetAfterStmt(func(txn *minidb.Txn, st sqlast.Stmt) {
			fmt.Fprintf(&buf, "%s\n", st)
			grants := minidb.GrantsOf(txn)
			for _, g := range grants[listed[txn]:] {
				fmt.Fprintf(&buf, "\t%s %s %s %s %s\n", g.Table, g.Index, g.Key, kindOf(g), g.Mode)
			}
			listed[txn] = len(grants)
		})
		for _, ut := range app.UnitTests() {
			fmt.Fprintf(&buf, "## %s\n", ut.Name)
			e := concolic.New(concolic.ModeOff)
			e.StartConcolic(ut.Name)
			err := ut.Run(e)
			e.EndConcolic()
			if err != nil {
				t.Fatalf("%s: unit test %s: %v", spec, ut.Name, err)
			}
		}
	}
	golden := filepath.Join("testdata", "lock_footprint.golden")
	if *updateFootprint {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got := filepath.Join(t.TempDir(), "lock_footprint.got")
		os.WriteFile(got, buf.Bytes(), 0o644)
		t.Errorf("lock footprint differs from %s (%d vs %d bytes); first difference at line %d",
			golden, buf.Len(), len(want), firstDiffLine(buf.Bytes(), want))
	}
}

func kindOf(g minidb.Grant) string {
	if g.Gap {
		return "gap"
	}
	return "record"
}

func firstDiffLine(a, b []byte) int {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := range la {
		if i >= len(lb) || !bytes.Equal(la[i], lb[i]) {
			return i + 1
		}
	}
	return len(la) + 1
}
