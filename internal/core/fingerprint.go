package core

// Deadlock fingerprints: a stable, run-independent identity for each
// diagnosed deadlock, used by the history store (internal/history) to
// dedup re-ingested corpora and roll incidents up across days of
// service operation.
//
// The fingerprint is a hash of the cycle's identity (Cycle.identity, the
// strings dedupKey joins): each side's API, hold/wait statement templates
// with their module-relative triggering code locations, and table order,
// oriented mirror-invariantly (the two sides are sorted, so T1/T2 role
// assignment does not matter). Everything hashed is part of the
// deterministic report surface: reports are byte-identical at any
// parallelism and wherever the binary was built, so the fingerprint is
// too. The anti-pattern class (Table II entry, planted f-class) is a
// function of the cycle and therefore folded in implicitly; classifiers
// attach the class label alongside, they never feed the hash.

import (
	"fmt"
	"hash/fnv"
)

// Fingerprint returns the deadlock's stable 16-hex-digit identity.
// Equivalent cycles — same API pair, same hold/wait statement templates
// at the same code locations, same table resources, in either T1/T2
// orientation — fingerprint identically across runs, trace input order,
// parallelism settings, and enumeration modes.
func (d *Deadlock) Fingerprint() string {
	side1, side2 := d.Cycle.identity(stmtKey)
	h := fnv.New64a()
	h.Write([]byte(side1))
	h.Write([]byte{0})
	h.Write([]byte(side2))
	return fmt.Sprintf("%016x", h.Sum64())
}

// DistinctFingerprints counts the distinct fingerprints among the
// result's deadlocks (the history store's event count for this run).
func (r *Result) DistinctFingerprints() int {
	seen := map[string]bool{}
	for _, d := range r.Deadlocks {
		seen[d.Fingerprint()] = true
	}
	return len(seen)
}
