package fixapply

import (
	"weseer/internal/core"
	"weseer/internal/lockmodel"
	"weseer/internal/schema"
	"weseer/internal/sqlast"
	"weseer/internal/trace"
)

// Edit hints: the bridge from a diagnosed cycle to the mechanical fix
// classes the plan can apply. Each hint names one rewrite family from the
// paper's Table II fix column; the mapping is derived purely from the
// cycle's hold/wait statement shapes, so it is deterministic and needs no
// app-specific knowledge.

// editHint is one applicable-edit family for a diagnosed deadlock.
type editHint uint8

const (
	// hintReorder: both cycle sides hold and wait on plain writes — an
	// acquisition-order inversion fixable by reordering the statements
	// (feedback-edge inversion, fixes f6/f10/f11).
	hintReorder editHint = iota + 1
	// hintUpsert: a side holds a point-primary-key SELECT and waits on an
	// INSERT into the same table — the check-then-insert / merge-on-absent
	// shape fixable by a single atomic UPSERT (fixes f1/f2).
	hintUpsert
	// hintFlushBarrier: a held write was physically sent at a different
	// site than it was triggered (ORM write-behind flush reordering) — an
	// explicit flush restores program order (fix f4).
	hintFlushBarrier
	// hintProbeRead: a held SELECT (range scan, or a point read later
	// upgraded) blocks a peer's write — moving the read into a separate
	// auto-commit probe transaction releases its locks before the writes
	// begin (fixes f3/f5/f7/f8/f9).
	hintProbeRead
)

// String returns the hint's fix-plan label.
func (h editHint) String() string {
	switch h {
	case hintReorder:
		return "reorder"
	case hintUpsert:
		return "upsert"
	case hintFlushBarrier:
		return "flush-barrier"
	case hintProbeRead:
		return "probe-read"
	}
	return "unknown"
}

// editHints classifies the deadlock's cycle into the applicable-edit
// families, deduplicated and in editHint order. scm resolves primary
// keys for the point-select test; it must be the schema the deadlock was
// diagnosed against.
func editHints(d *core.Deadlock, scm *schema.Schema) []editHint {
	seen := map[editHint]bool{}
	for _, side := range [][2]*trace.Stmt{
		{d.Cycle.S1a, d.Cycle.S1b},
		{d.Cycle.S2a, d.Cycle.S2b},
	} {
		if h := sideHint(side[0], side[1], scm); h != 0 {
			seen[h] = true
		}
	}
	var out []editHint
	for h := hintReorder; h <= hintProbeRead; h++ {
		if seen[h] {
			out = append(out, h)
		}
	}
	return out
}

// sideHint classifies one cycle side: holds is the statement whose lock
// the peer waits on, waits is where this transaction blocks.
func sideHint(holds, waits *trace.Stmt, scm *schema.Schema) editHint {
	if sel, ok := holds.Parsed.(*sqlast.Select); ok {
		// A point read of the primary key: its shared lock covers exactly
		// the row (or gap) the check-then-insert later writes.
		w := waits.Parsed.WriteTable()
		if w != "" && w == sel.From.Table && lockmodel.IsPointQuery(scm.Table(w).PrimaryIndex(), sel.Where.Preds) {
			switch waits.Parsed.Kind() {
			case sqlast.KindInsert, sqlast.KindUpsert:
				return hintUpsert
			}
		}
		return hintProbeRead
	}
	if holds.IsWrite() {
		if holds.Deferred() {
			return hintFlushBarrier
		}
		return hintReorder
	}
	return 0
}
