package concolic

// framePCs stores the return address of each physical frame above its
// caller's, innermost first, by following the frame-pointer chain, as Go's
// execution tracer unwinds. It reports whether the chain ended within
// len(pcs) frames; if not, pcs holds only the innermost ones.
//
//go:noescape
func framePCs(pcs *[keyDepth]uintptr) bool
