package concolic_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/trace"
)

// TestHereMatchesOracle checks the call-site table against the eager
// symbolizer over everything real collection captures: every Trigger and
// Sent location of the evaluation apps and a generated corpus must be a
// slice the table handed out, and must equal what symbolizing that stack's
// PCs from scratch yields. A statement sent where it was triggered has a
// zero Sent; one with a Sent (a write-behind statement, sent at its flush
// site) holds a slice other than its trigger's and must be what
// trace.Stmt.Deferred reports, and nothing else may be.
func TestHereMatchesOracle(t *testing.T) {
	for _, spec := range []string{"broadleaf", "shopizer", "gen:7,templates=96"} {
		app, err := apps.Open(spec, apps.Options{})
		if err != nil {
			t.Fatal(err)
		}
		traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
		if err != nil {
			t.Fatal(err)
		}
		sites := concolic.SitePCs()
		checked := 0
		check := func(what string, loc trace.CodeLoc) {
			if len(loc.Frames) == 0 {
				t.Errorf("%s: empty %s location", spec, what)
				return
			}
			pcs, ok := sites[&loc.Frames[0]]
			if !ok {
				t.Errorf("%s: %s location %v is not a call-site table entry", spec, what, loc)
				return
			}
			if want := concolic.EagerFrames(pcs); !reflect.DeepEqual(loc.Frames, want) {
				t.Errorf("%s: %s location\n got %v\nwant %v", spec, what, loc.Frames, want)
			}
			// Application frames all live in this module: their files are
			// named from its root, whatever directory or -trimpath built them.
			for _, f := range loc.Frames {
				if !strings.HasPrefix(f.File, "internal/") {
					t.Errorf("%s: %s frame %v: file is not module-relative", spec, what, f)
				}
			}
			checked++
		}
		deferred := 0
		for _, tr := range traces {
			for _, txn := range tr.Txns {
				for _, st := range txn.Stmts {
					check("trigger", st.Trigger)
					sent := len(st.Sent.Frames) > 0
					if sent != st.Deferred() {
						t.Errorf("%s: %s #%d: sent recorded = %v, Deferred = %v", spec, tr.API, st.Seq, sent, st.Deferred())
					}
					if !sent {
						continue
					}
					check("sent", st.Sent)
					if len(st.Trigger.Frames) > 0 && &st.Sent.Frames[0] == &st.Trigger.Frames[0] {
						t.Errorf("%s: %s #%d: Sent is its Trigger's slice", spec, tr.API, st.Seq)
					}
					deferred++
				}
			}
		}
		if checked == 0 || deferred == 0 {
			t.Errorf("%s: %d locations collected, %d write-behind statements", spec, checked, deferred)
		}
	}
}

// TestWalksPerStatement bounds what collection pays in stack captures: one
// per ORM operation — a query's, or a flush's shared by the statements it
// sends — comes to well under 1.3 per recorded statement on a generated
// corpus (3.5 when Exec re-captured for Sent and every path condition
// carried a location nobody read). A capture at a known call site is a
// frame-pointer walk and a lookup, so the collection unwinds with
// runtime.Callers at most once per call site it adds to the table (once
// per statement while every capture unwound).
func TestWalksPerStatement(t *testing.T) {
	app, err := apps.Open("gen:7,templates=96", apps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	walks0, unwinds0, sites0 := concolic.StackWalks(), concolic.StackUnwinds(), concolic.Sites()
	traces, err := appkit.Collect(app.UnitTests(), concolic.ModeConcolic)
	if err != nil {
		t.Fatal(err)
	}
	walks, unwinds, sites := concolic.StackWalks()-walks0, concolic.StackUnwinds()-unwinds0, concolic.Sites()-sites0
	stmts := 0
	for _, tr := range traces {
		stmts += tr.Stats.Statements
	}
	if ratio := float64(walks) / float64(stmts); stmts == 0 || ratio > 1.3 {
		t.Errorf("%d walks for %d statements (%.2f per statement), want <= 1.3", walks, stmts, ratio)
	}
	if concolic.FramePointerKeys && unwinds > int64(sites) {
		t.Errorf("%d runtime.Callers unwinds for %d new call sites: a capture at a known site unwound", unwinds, sites)
	}
}

// captureBoth captures one call site both ways; the two calls share a
// source line so that equal stacks symbolize to equal frames. skip must
// be at least 1: at 0 each capture starts with its own frame, and only
// Here's is an engine frame that the filter drops.
func captureBoth(skip int) (trace.CodeLoc, concolic.Unwind) {
	return concolic.Here(skip), concolic.EagerHere(skip)
}

// captureAtDepth calls captureBoth under n extra frames: each depth is a
// distinct stack, and past the walk's depth the window is truncated.
func captureAtDepth(n, skip int) (trace.CodeLoc, concolic.Unwind) {
	if n == 0 {
		return captureBoth(skip)
	}
	return captureAtDepth(n-1, skip)
}

// TestHereMatchesEagerHere holds a capture, on its miss and on its hit, to
// a fresh unwind of the same stack: the same frames, and an entry whose
// unwind renders line for line like the fresh one, frames the filter
// drops or the six-frame cap cuts included. The depths straddle the key's
// physical-frame limit (under the test's own few frames, so some
// chains fill the key exactly and some overflow it), at every skip Here
// is called with: a key that missed a frame some unwind reaches lets two
// stacks that differ there share an entry, which the rendering shows.
func TestHereMatchesEagerHere(t *testing.T) {
	depths := []int{0, 1, 5, 17, 40}
	for d := concolic.KeyDepth - 12; d <= concolic.KeyDepth+2; d++ {
		depths = append(depths, d)
	}
	for _, depth := range depths {
		for skip := 1; skip <= 3; skip++ {
			for round := 0; round < 2; round++ { // a miss, then a hit
				got, want := captureAtDepth(depth, skip)
				if len(want.Loc.Frames) == 0 {
					t.Fatalf("depth %d skip %d: oracle captured nothing", depth, skip)
				}
				if !reflect.DeepEqual(got, want.Loc) {
					t.Errorf("depth %d skip %d round %d:\n got %v\nwant %v", depth, skip, round, got, want.Loc)
					continue
				}
				pcs, ok := concolic.SitePCs()[&got.Frames[0]]
				if !ok {
					t.Fatalf("depth %d skip %d round %d: %v is not a call-site table entry", depth, skip, round, got)
				}
				if g, w := concolic.Lines(pcs), concolic.Lines(want.PCs); !reflect.DeepEqual(g, w) {
					t.Errorf("depth %d skip %d round %d: the entry's unwind\n%s\nis not the fresh one\n%s",
						depth, skip, round, strings.Join(g, "\n"), strings.Join(w, "\n"))
				}
			}
		}
	}
}

// TestHereConcurrent drives the process-wide table from many goroutines
// at once, through one common site and through sites of their own (run
// under -race in verify.sh).
func TestHereConcurrent(t *testing.T) {
	const workers, rounds = 16, 200
	common := make([]trace.CodeLoc, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				got, want := captureAtDepth(0, 1)
				if !reflect.DeepEqual(got, want.Loc) {
					t.Errorf("worker %d: common site: got %v want %v", g, got, want)
					return
				}
				common[g] = got
				// Depth g+1 is this worker's own stack shape.
				if got, want := captureAtDepth(g+1, 1); !reflect.DeepEqual(got, want.Loc) {
					t.Errorf("worker %d: own site: got %v want %v", g, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < workers; g++ {
		if len(common[g].Frames) == 0 || &common[g].Frames[0] != &common[0].Frames[0] {
			t.Fatalf("workers 0 and %d hold different slices for one call site", g)
		}
	}
}
