//go:build !amd64

package concolic

// framePCs walks no frame pointers on this GOARCH: every capture is keyed
// by its runtime.Callers unwind.
func framePCs(*[keyDepth]uintptr) bool { return false }
