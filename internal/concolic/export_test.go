package concolic

import (
	"fmt"
	"runtime"
	"strings"

	"weseer/internal/trace"
)

// Unwind is what the stack capture Here replaced returns: the logical PCs
// of one runtime.Callers unwind and the application frames symbolized and
// filtered from them, nothing shared.
type Unwind struct {
	PCs []uintptr
	Loc trace.CodeLoc
}

// EagerHere is the stack capture Here replaced — unwind, symbolize and
// filter on every call — kept as the oracle the call-site table is tested
// against.
func EagerHere(skip int) Unwind {
	var pcs [stackDepth]uintptr
	n := runtime.Callers(skip+1, pcs[:])
	return Unwind{PCs: pcs[:n], Loc: trace.CodeLoc{Frames: EagerFrames(pcs[:n])}}
}

// Lines renders every logical frame of an unwind, unfiltered and uncapped,
// as "function file:line": two unwinds from one source line of the same
// stack render alike, whichever call instruction each came from.
func Lines(pcs []uintptr) []string {
	var out []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		out = append(out, fmt.Sprintf("%s %s:%d", f.Function, f.File, f.Line))
		if !more {
			return out
		}
	}
}

// FramePointerKeys reports whether this GOARCH keys captures by a
// frame-pointer walk, so that a capture at a known site unwinds nothing:
// whether the walk reaches the end of package initialization's short chain.
var FramePointerKeys = func() bool {
	var pcs [keyDepth]uintptr
	return framePCs(&pcs)
}()

// EagerFrames symbolizes and filters raw PCs the way EagerHere does.
func EagerFrames(pcs []uintptr) []trace.Frame {
	frames := runtime.CallersFrames(pcs)
	var out []trace.Frame
	for {
		f, more := frames.Next()
		if keepFrame(f.Function, f.File) {
			out = append(out, trace.Frame{Func: shortFunc(f.Function), File: strings.TrimPrefix(f.File, modulePrefix), Line: f.Line})
			if len(out) >= 6 {
				break
			}
		}
		if !more {
			break
		}
	}
	return out
}

// KeyDepth is how many physical frames a call-site key holds.
const KeyDepth = keyDepth

// SitePCs returns the logical PCs of every call-site table entry, keyed by
// the first element of the Frames slice the table hands out for it — so a
// test can tell that a collected location is a table entry and recompute
// it from scratch.
func SitePCs() map[*trace.Frame][]uintptr {
	sites.Lock()
	defer sites.Unlock()
	out := make(map[*trace.Frame][]uintptr, len(sites.m))
	for _, s := range sites.m {
		if len(s.frames) > 0 {
			out[&s.frames[0]] = s.pcs
		}
	}
	return out
}

// Sites returns how many keys the call-site table holds.
func Sites() int {
	sites.Lock()
	defer sites.Unlock()
	return len(sites.m)
}

// forgetSites empties the call-site table, so the next Here at any site
// is a miss.
func forgetSites() {
	sites.Lock()
	defer sites.Unlock()
	clear(sites.m)
}
