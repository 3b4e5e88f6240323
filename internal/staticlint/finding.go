// Package staticlint is WeSEER's static deadlock analysis: it runs
// without concolic execution and SMT solving.
//
// It bundles two analyzers:
//
//   - Analyzer 1 (template pre-screen, prescreen.go): from the sqlast
//     statement templates of each transaction it flags read-then-write
//     lock upgrades on one table (lock-order-inversion). Write-order
//     inversions between transactions are the conflicting edges of the
//     cross-API canonical order (canonical.go, `weseer vet
//     -canonical-order`).
//
//   - Analyzer 2 (ORM-misuse source lint, lint.go): a stdlib go/ast
//     scan of application packages for the anti-patterns behind the
//     paper's Table II fixes — Merge-induced SELECT-then-INSERT (f1),
//     check-then-insert UPSERT candidates (f2), buffered writes that
//     slide past session reads to their flush (f4; the d5/d6 class), and
//     unordered multi-entity lock acquisition (f9).
//
// Both analyzers report Findings; `weseer vet` prints them as text or
// versioned JSON.
package staticlint

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Severity ranks findings; `weseer vet -fail-on` gates the exit code on
// the highest severity reported.
type Severity uint8

// Severities, in ascending order.
const (
	SevInfo Severity = iota
	SevWarn
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarn:
		return "warn"
	case SevError:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", uint8(s))
}

// ParseSeverity parses "info", "warn" or "error".
func ParseSeverity(s string) (Severity, error) {
	switch s {
	case "info":
		return SevInfo, nil
	case "warn":
		return SevWarn, nil
	case "error":
		return SevError, nil
	}
	return 0, fmt.Errorf("staticlint: unknown severity %q (want info|warn|error)", s)
}

// MarshalText implements encoding.TextMarshaler.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (s *Severity) UnmarshalText(b []byte) error {
	v, err := ParseSeverity(string(b))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// Finding kinds reported by the two analyzers.
const (
	// Analyzer 1 (template pre-screen).
	KindLockOrderInversion = "lock-order-inversion"
	// Analyzer 2 (ORM-misuse lint).
	KindMergeSelectInsert = "merge-select-insert"
	KindUpsertCandidate   = "upsert-candidate"
	KindFlushReorder      = "flush-reorder"
	KindUnorderedLocks    = "unordered-locks"
)

// Finding is one static-analysis report, in the trigger-code style of
// the dynamic reports (Sec. VI): the source location that plants the
// hazard, not the statement that trips it.
type Finding struct {
	Analyzer string   `json:"analyzer"` // "prescreen" or "ormlint"
	Kind     string   `json:"kind"`
	Severity Severity `json:"severity"`
	File     string   `json:"file,omitempty"`
	Line     int      `json:"line,omitempty"`
	Func     string   `json:"func,omitempty"`  // enclosing function or API
	Table    string   `json:"table,omitempty"` // involved table, if known
	Detail   string   `json:"detail"`
}

func (f Finding) String() string {
	loc := "(template)"
	if f.File != "" {
		loc = fmt.Sprintf("%s:%d", f.File, f.Line)
	}
	tab := ""
	if f.Table != "" {
		tab = " [" + f.Table + "]"
	}
	return fmt.Sprintf("%s: %s %s%s: %s (%s)", loc, f.Severity, f.Kind, tab, f.Detail, f.Func)
}

// Sort orders findings deterministically: file, line, kind, table,
// detail, func — a total order over every emitted field, so the report
// never depends on emission (or map-iteration) order. Template findings
// (no file) sort after source findings.
func Sort(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if (a.File == "") != (b.File == "") {
			return a.File != ""
		}
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.Detail != b.Detail {
			return a.Detail < b.Detail
		}
		return a.Func < b.Func
	})
}

// MaxSeverity returns the highest severity among the findings, and false
// when there are none.
func MaxSeverity(fs []Finding) (Severity, bool) {
	if len(fs) == 0 {
		return 0, false
	}
	max := fs[0].Severity
	for _, f := range fs[1:] {
		if f.Severity > max {
			max = f.Severity
		}
	}
	return max, true
}

// ---------------------------------------------------------------------------
// JSON report

// JSONVersion is the schema version of the `weseer vet -json` output.
const JSONVersion = 1

type reportJSON struct {
	Version  int       `json:"version"`
	Findings []Finding `json:"findings"`
	// Canonical carries the cross-API lock-order canonicalization when
	// `weseer vet -canonical-order` requested it; absent otherwise, so
	// version-1 reports stay backward compatible.
	Canonical *CanonicalOrder `json:"canonical_order,omitempty"`
}

// EncodeReport renders the versioned vet report, optionally carrying the
// canonical lock-order section (-canonical-order).
func EncodeReport(fs []Finding, co *CanonicalOrder) ([]byte, error) {
	if fs == nil {
		fs = []Finding{}
	}
	return json.MarshalIndent(reportJSON{Version: JSONVersion, Findings: fs, Canonical: co}, "", "  ")
}
