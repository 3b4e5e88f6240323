package staticlint

import (
	"fmt"
	"go/token"
	"strings"

	"weseer/internal/schema"
)

// Analyzer 2: the ORM-misuse source lint. It works on the interpreted
// function facts from source.go and flags the anti-pattern shapes behind
// the paper's application-side fixes:
//
//   - merge-select-insert: Merge on a (possibly new) entity issues an
//     existence SELECT — a range lock when the row is absent — before
//     the INSERT (fix f1's Persist, or an UPSERT, avoids the scan).
//   - upsert-candidate: `rows := s.Query(...); if len(rows) == 0 {
//     ... s.Persist(...) }` — check-then-insert, the d2 shape fix f2
//     replaces with INSERT ... ON DUPLICATE KEY UPDATE.
//   - flush-reorder: a buffered Set on an existing row followed by
//     session reads with no unconditional Flush between — the write
//     slides to commit, past the reads (d5/d6; fix f4 flushes early).
//   - unordered-locks: ranging over a collection that is not provably
//     sorted while taking row or mutex locks in the body — concurrent
//     callers acquire in different orders (d14–d18; fix f9–f11 sort).
//
// The lint over-approximates: branches are treated as sequential and a
// loop is "unordered" unless its ranged variable was sorted in the same
// function. Findings are hazard reports, not proofs.

// lint runs Analyzer 2 over the scanned functions.
func (p *Program) lint() []Finding {
	var out []Finding
	for _, f := range p.facts {
		out = append(out, f.mergeFindings()...)
		out = append(out, f.upsertFindings()...)
		out = append(out, f.flushFindings()...)
		out = append(out, f.unorderedFindings()...)
	}
	Sort(out)
	return out
}

func (f *fnFacts) finding(kind string, sev Severity, line int, table, detail string) Finding {
	return Finding{
		Analyzer: "ormlint", Kind: kind, Severity: sev,
		File: f.file, Line: line, Func: f.name, Table: table, Detail: detail,
	}
}

func (f *fnFacts) mergeFindings() []Finding {
	var out []Finding
	for _, m := range f.merges {
		out = append(out, f.finding(KindMergeSelectInsert, SevWarn, m.line, "",
			"Merge issues an existence SELECT (range lock when absent) before the INSERT; Persist or an UPSERT avoids the scan"))
	}
	return out
}

func (f *fnFacts) upsertFindings() []Finding {
	var out []Finding
	for _, ifs := range f.ifs {
		if !f.queried[ifs.emptyVar] {
			continue
		}
		hit := false
		for _, ps := range f.persists {
			if ps.pos >= ifs.body[0] && ps.pos < ifs.body[1] {
				hit = true
				break
			}
		}
		for _, m := range f.merges {
			if m.pos >= ifs.body[0] && m.pos < ifs.body[1] {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		out = append(out, f.finding(KindUpsertCandidate, SevWarn, ifs.line, "",
			fmt.Sprintf("check-then-insert: the existence query behind len(%s) range-locks the absent key and the buffered INSERT collides with a concurrent peer's range; use a single UPSERT", ifs.emptyVar)))
	}
	return out
}

func (f *fnFacts) flushFindings() []Finding {
	var out []Finding
	reported := map[int]bool{}
	report := func(ev event) {
		if reported[ev.line] {
			return
		}
		reported[ev.line] = true
		tab := ev.entTab
		out = append(out, f.finding(KindFlushReorder, SevWarn, ev.line, tab,
			"buffered write slides past later session reads to the commit flush; flush before reading (or the lock order diverges from program order)"+provenance("write buffered", ev)))
	}
	// Linear pass: pending buffered writes are cleared by an
	// unconditional Flush and reported at the first read that crosses
	// them.
	var pending []event
	for _, ev := range f.events {
		switch ev.kind {
		case evWrite:
			pending = append(pending, ev)
		case evFlush:
			if ev.uncond {
				pending = nil
			}
		case evRead:
			if len(pending) > 0 {
				report(pending[0])
				pending = nil
			}
		}
	}
	// Loop-carried pass: a read earlier in a loop body re-executes after
	// the body's unflushed write on the next iteration.
	for _, lp := range f.loops {
		var reads []token.Pos
		for _, ev := range f.events {
			if ev.pos < lp.body[0] || ev.pos >= lp.body[1] {
				continue
			}
			if ev.kind == evRead {
				reads = append(reads, ev.pos)
			}
		}
		for _, ev := range f.events {
			if ev.kind != evWrite || ev.pos < lp.body[0] || ev.pos >= lp.body[1] {
				continue
			}
			flushed := false
			for _, fv := range f.events {
				if fv.kind == evFlush && fv.uncond && fv.pos > ev.pos && fv.pos < lp.body[1] {
					flushed = true
				}
			}
			if flushed {
				continue
			}
			for _, r := range reads {
				if r < ev.pos {
					report(ev)
					break
				}
			}
		}
	}
	return out
}

func (f *fnFacts) unorderedFindings() []Finding {
	var out []Finding
	for _, lp := range f.loops {
		locks := false
		via := ""
		for _, ev := range f.events {
			if ev.kind == evLock && ev.pos >= lp.body[0] && ev.pos < lp.body[1] {
				locks = true
				if via == "" {
					via = provenance("lock taken", ev)
				}
				if via != "" {
					break
				}
			}
		}
		if !locks {
			continue
		}
		out = append(out, f.finding(KindUnorderedLocks, SevError, lp.line, "",
			fmt.Sprintf("loop over %s takes row or mutex locks per element without a proven order; concurrent callers acquire in different orders and deadlock — sort the collection first%s", lp.rangeExpr, via)))
	}
	return out
}

// provenance renders a spliced summary event's call chain for a finding
// detail ("" for an event local to the function).
func provenance(what string, ev event) string {
	if !ev.summary {
		return ""
	}
	return fmt.Sprintf("; %s via %s at %s:%d", what, strings.Join(ev.path, " -> "), ev.leafFile, ev.leafLine)
}

// Findings runs both analyzers over the loaded tree: Analyzer 2 on the
// source and Analyzer 1 on the statement templates extracted from it.
// scm may be nil (no schema → gap-escalation and synthesized point
// statements are skipped).
func (p *Program) Findings(scm *schema.Schema) []Finding {
	out := p.lint()
	out = append(out, PrescreenTxns(p.Shapes(scm), scm)...)
	Sort(out)
	return out
}

// VetOptions is empty: vet has one resolver.
//
// Deprecated: kept, with DefaultVetOptions and VetDir, only because
// benchmark/probes.go still calls them; use Load and Program.Findings.
type VetOptions struct{}

// DefaultVetOptions returns the empty VetOptions.
//
// Deprecated: see VetOptions.
func DefaultVetOptions() VetOptions { return VetOptions{} }

// VetDir is Load + Findings.
//
// Deprecated: see VetOptions.
func VetDir(dir string, scm *schema.Schema, _ VetOptions) ([]Finding, error) {
	p, err := Load(dir)
	if err != nil {
		return nil, err
	}
	return p.Findings(scm), nil
}
