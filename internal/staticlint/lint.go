package staticlint

import (
	"fmt"
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
//   - flush-reorder: a buffered Set on an existing row, in the function
//     or in a callee, followed by session reads before the Flush or
//     commit that sends it, or in a loop whose body reads — the write
//     slides past the reads (d5/d6; fix f4 flushes early).
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

// flushFindings reports each buffered write that slides (fnFacts.slide),
// the function's own and those spliced in from callees, once per source
// line: a call that buffers several writes is one finding, named by its
// first slid write.
func (f *fnFacts) flushFindings() []Finding {
	var out []Finding
	reported := map[int]bool{}
	for _, ev := range f.events {
		if ev.kind != evWrite || reported[ev.line] {
			continue
		}
		if _, slid := f.slide(ev.pos); !slid {
			continue
		}
		reported[ev.line] = true
		out = append(out, f.finding(KindFlushReorder, SevWarn, ev.line, ev.entTab,
			"buffered write slides past later session reads to the commit flush; flush before reading (or the lock order diverges from program order)"+provenance("write buffered", ev)))
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
// scm may be nil (no schema → synthesized point statements are skipped).
func (p *Program) Findings(scm *schema.Schema) []Finding {
	out := p.lint()
	out = append(out, prescreenTxns(p.Shapes(scm))...)
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
