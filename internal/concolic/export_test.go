package concolic

import (
	"runtime"
	"strings"

	"weseer/internal/trace"
)

// EagerHere is the stack capture Here replaced — walk, symbolize and
// filter on every call, nothing shared — kept as the oracle the call-site
// table is tested against.
func EagerHere(skip int) trace.CodeLoc {
	var pcs [stackDepth]uintptr
	n := runtime.Callers(skip+1, pcs[:])
	return trace.CodeLoc{Frames: EagerFrames(pcs[:n])}
}

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

// SitePCs returns the raw PCs of every stack in the call-site table,
// keyed by the first element of the Frames slice the table hands out for
// it — so a test can tell that a collected location is a table entry and
// recompute it from scratch.
func SitePCs() map[*trace.Frame][]uintptr {
	sites.Lock()
	defer sites.Unlock()
	out := make(map[*trace.Frame][]uintptr, len(sites.m))
	for pcs, frames := range sites.m {
		if len(frames) == 0 {
			continue
		}
		n := 0
		for n < len(pcs) && pcs[n] != 0 {
			n++
		}
		k := pcs
		out[&frames[0]] = k[:n]
	}
	return out
}

// forgetSites empties the call-site table, so the next Here at any site
// is a miss.
func forgetSites() {
	sites.Lock()
	defer sites.Unlock()
	for k := range sites.m {
		delete(sites.m, k)
	}
}
