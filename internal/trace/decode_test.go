package trace_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"unsafe"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/trace"
)

// collect returns spec's trace batch as `weseer collect -o` writes it.
func collect(t testing.TB, spec string) []byte {
	t.Helper()
	app, err := apps.Open(spec, apps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(traces)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDecodeMatchesOracle reads real batches with Decode and with the
// reflective oracle: the same traces, re-encoding to the input's bytes,
// and the sharing Decode promises — one parse per SQL text, one string
// per repeated text, and frames no two CodeLocs share.
func TestDecodeMatchesOracle(t *testing.T) {
	specs := []string{"broadleaf", "shopizer", "gen:7,templates=96"}
	if !testing.Short() {
		specs = append(specs, "gen:7,templates=1056")
	}
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			data := collect(t, spec)
			got, err := trace.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			want, err := trace.OracleDecode(data)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d traces, oracle %d", len(got), len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("trace %d (%s) differs from the oracle's", i, want[i].API)
				}
			}
			if again, err := json.Marshal(got); err != nil || !bytes.Equal(again, data) {
				t.Fatalf("re-encoding differs from the input (error %v)", err)
			}

			parsed := map[string]any{}
			names := map[string]*byte{}
			frames := map[*trace.Frame]bool{}
			for _, tr := range got {
				for _, st := range tr.AllStmts() {
					if p, ok := parsed[st.SQL]; ok && p != st.Parsed {
						t.Fatalf("%q parsed twice", st.SQL)
					}
					parsed[st.SQL] = st.Parsed
					for _, loc := range []trace.CodeLoc{st.Trigger, st.Sent} {
						for _, f := range loc.Frames {
							if p, ok := names[f.File]; ok && p != unsafe.StringData(f.File) {
								t.Fatalf("file name %s allocated twice", f.File)
							}
							names[f.File] = unsafe.StringData(f.File)
						}
						if len(loc.Frames) > 0 && frames[&loc.Frames[0]] {
							t.Fatalf("two CodeLocs share frames %v", loc)
						}
						if len(loc.Frames) > 0 {
							frames[&loc.Frames[0]] = true
						}
					}
				}
			}
		})
	}
}

// TestDecodeAllocs pins Decode's allocations per statement on the
// gen:7,templates=96 batch, the one the serve-cycle benchmark ingests:
// 19.7 measured (9,772 for 496 statements; 21.7 while results carried
// concrete rows and every statement a sent site), plus 10 %.
func TestDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const ceiling = 21.7
	data := collect(t, "gen:7,templates=96")
	traces, err := trace.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	stmts := 0
	for _, tr := range traces {
		stmts += len(tr.AllStmts())
	}
	allocs := testing.AllocsPerRun(5, func() { trace.Decode(data) })
	if perStmt := allocs / float64(stmts); perStmt > ceiling {
		t.Errorf("Decode: %.1f allocations per statement (%.0f for %d), ceiling %.1f", perStmt, allocs, stmts, ceiling)
	} else {
		t.Logf("Decode: %.1f allocations per statement (%.0f for %d)", perStmt, allocs, stmts)
	}
}
