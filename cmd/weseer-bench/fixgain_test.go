package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestFixgainDeterminism pins the -exp fixgain determinism contract:
// same seed and config produce a byte-identical report modulo the
// wall-clock-dependent fields (Env and the measured Load sections), at
// phase-3 parallelism 1 and 4. The Static half — baseline diagnosis,
// fix plan, every individual and cumulative re-analysis, and the gates
// — must not depend on worker scheduling.
func TestFixgainDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full fixgain loop twice; skip in -short")
	}
	specs := []string{"gen:7,templates=3,modules=1,tables=2,rows=4,classes=f2:1+f10:1"}
	build := func(workers int) []byte {
		out := buildFixgain(specs, 4, 50*time.Millisecond, workers, true)
		// Zero the wall-clock-dependent fields; everything else is under
		// the determinism contract.
		out.Env = fixgainEnv{}
		for i := range out.Apps {
			out.Apps[i].Load = nil
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	p1 := build(1)
	p4 := build(4)
	if !bytes.Equal(p1, p4) {
		t.Errorf("fixgain static report differs between parallelism 1 and 4:\n--- p1 ---\n%s\n--- p4 ---\n%s", p1, p4)
	}
	again := build(1)
	if !bytes.Equal(p1, again) {
		t.Errorf("fixgain static report differs between two identical runs:\n--- first ---\n%s\n--- second ---\n%s", p1, again)
	}
	var rep fixgainJSON
	if err := json.Unmarshal(p1, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Apps) != 1 || len(rep.Apps[0].Static.Plan) == 0 {
		t.Fatalf("determinism corpus produced no fix plan: %s", p1)
	}
	if !rep.Apps[0].Static.Gates.Pass {
		t.Errorf("determinism corpus fails its static gates: %s", p1)
	}
}
