// Package fixapply closes the fix-verification loop: it turns a
// diagnosis report (core.Result) into a ranked plan of mechanically
// applicable fixes — which named fix to enable, which transaction
// templates it rewrites, which edit family the rewrite belongs to
// (acquisition reorder, read-then-write → UPSERT, flush-barrier
// insertion, probe-read extraction), and exactly which deadlock
// fingerprints it must eliminate. The plan is pure data: applying a fix
// means reopening the application through the registry with the fix
// enabled (apps.Options.Apply), so the fixed app still satisfies the
// full apps.App surface and can be re-collected, re-analyzed, and
// driven under load. weseer-bench -exp fixgain is the consumer that
// measures the before/after throughput win; the re-analysis gate
// (Fix.Fingerprints absent afterwards) is what turns a static
// suggestion into a verified claim.
package fixapply

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"weseer/internal/apps"
	"weseer/internal/apps/appkit"
	"weseer/internal/core"
)

// Cataloged is optionally implemented by apps whose Classify output
// refers to a published deadlock catalog (the model apps' Table II
// entries). The catalog resolves a classified id ("d2") to the named
// fix that removes it ("f2: Use MySQL UPSERT mechanism"). Apps whose
// classifier already returns fix-class names (generated corpora return
// "f1".."f11") need no catalog.
type Cataloged interface {
	Catalog() []appkit.Expectation
}

// Fix is one entry of a ranked fix plan.
type Fix struct {
	// Rank is the 1-based plan position (most diagnosed reports first).
	Rank int `json:"rank"`
	// Name is the fix the application must enable ("f1".."f11") — the
	// value to pass in apps.Options.Apply.
	Name string `json:"name"`
	// Desc is the catalog's fix description ("" without a catalog).
	Desc string `json:"desc,omitempty"`
	// Targets are the classified catalog entries this fix removes
	// (["d3","d4"] for f3; the class itself for generated corpora).
	Targets []string `json:"targets"`
	// Kinds are the applicable-edit families derived from the diagnosed
	// cycle shapes (editHints), rendered as strings for artifacts.
	Kinds []string `json:"kinds"`
	// APIs are the transaction templates involved in the targeted
	// cycles — the templates the fix rewrites.
	APIs []string `json:"apis"`
	// Tables are the conflict tables of the targeted cycles.
	Tables []string `json:"tables"`
	// Fingerprints are the stable deadlock fingerprints this fix must
	// eliminate; re-analysis of the fixed app gates on their absence.
	Fingerprints []string `json:"fingerprints"`
	// Reports counts the diagnosed reports folded into this fix.
	Reports int `json:"reports"`
	// SuggestionRank is the rank of the best canonical-order reorder
	// suggestion whose violating sites lie in this fix's templates (0
	// when no suggestion backs the fix — not every edit family is a
	// lock-order inversion). Plan leaves it 0; a caller holding the
	// order sets it to staticlint's CanonicalOrder.Rank(APIs).
	SuggestionRank int `json:"suggestion_rank,omitempty"`
}

var fixNameRe = regexp.MustCompile(`^f(\d+)$`)

// Plan builds the ranked fix plan for a diagnosis of app. Deadlocks
// whose classification is empty, "extra", or a false-positive class
// ("fp-*") have no applicable fix and are skipped. The plan is
// deterministic: report order is already canonical, and every slice is
// sorted.
func Plan(app apps.App, res *core.Result) []Fix {
	catalog := map[string]appkit.Expectation{}
	if c, ok := app.(Cataloged); ok {
		for _, e := range c.Catalog() {
			catalog[e.ID] = e
		}
	}
	type group struct {
		fix          Fix
		targets      map[string]bool
		apis         map[string]bool
		tables       map[string]bool
		fingerprints map[string]bool
		kinds        map[editHint]bool
	}
	groups := map[string]*group{}
	scm := app.Schema()
	for _, d := range res.Deadlocks {
		cl := app.Classify(d)
		name, desc := fixFor(cl, catalog)
		if name == "" {
			continue
		}
		g := groups[name]
		if g == nil {
			g = &group{
				fix:          Fix{Name: name, Desc: desc},
				targets:      map[string]bool{},
				apis:         map[string]bool{},
				tables:       map[string]bool{},
				fingerprints: map[string]bool{},
				kinds:        map[editHint]bool{},
			}
			groups[name] = g
		}
		g.targets[cl] = true
		g.apis[d.APIs[0]] = true
		g.apis[d.APIs[1]] = true
		g.tables[d.Cycle.Table1] = true
		g.tables[d.Cycle.Table2] = true
		g.fingerprints[d.Fingerprint()] = true
		for _, h := range editHints(d, scm) {
			g.kinds[h] = true
		}
		g.fix.Reports++
	}

	out := make([]Fix, 0, len(groups))
	for _, g := range groups {
		f := g.fix
		f.Targets = sortedKeys(g.targets)
		f.APIs = sortedKeys(g.apis)
		f.Tables = sortedKeys(g.tables)
		f.Fingerprints = sortedKeys(g.fingerprints)
		for h := hintReorder; h <= hintProbeRead; h++ {
			if g.kinds[h] {
				f.Kinds = append(f.Kinds, h.String())
			}
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Reports != out[j].Reports {
			return out[i].Reports > out[j].Reports
		}
		if a, b := fixOrd(out[i].Name), fixOrd(out[j].Name); a != b {
			return a < b
		}
		return out[i].Name < out[j].Name
	})
	for i := range out {
		out[i].Rank = i + 1
	}
	return out
}

// fixFor resolves one classification to (fix name, description): via the
// catalog when the id is cataloged, directly when the classifier already
// names a fix class, and ("", "") when no fix applies.
func fixFor(cl string, catalog map[string]appkit.Expectation) (string, string) {
	if cl == "" || cl == "extra" || strings.HasPrefix(cl, "fp-") {
		return "", ""
	}
	if e, ok := catalog[cl]; ok {
		return e.FixID()
	}
	if fixNameRe.MatchString(cl) {
		return cl, ""
	}
	return "", ""
}

func fixOrd(name string) int {
	m := fixNameRe.FindStringSubmatch(name)
	if m == nil {
		return 1 << 30
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Render formats a fix plan for the text report ("" when empty).
func Render(fixes []Fix) string {
	if len(fixes) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fix plan (%d applicable fix(es), most reports first):\n", len(fixes))
	for _, f := range fixes {
		desc := ""
		if f.Desc != "" {
			desc = ": " + f.Desc
		}
		sugg := ""
		if f.SuggestionRank > 0 {
			sugg = fmt.Sprintf(", reorder suggestion #%d", f.SuggestionRank)
		}
		fmt.Fprintf(&b, "  #%d %s%s — %d report(s) over %s [%s]\n",
			f.Rank, f.Name, desc, f.Reports, strings.Join(f.Targets, ","),
			strings.Join(f.Kinds, "+"))
		fmt.Fprintf(&b, "      templates %s on tables %s%s\n",
			strings.Join(f.APIs, ", "), strings.Join(f.Tables, ", "), sugg)
		fmt.Fprintf(&b, "      eliminates fingerprints %s\n", strings.Join(f.Fingerprints, ", "))
	}
	return b.String()
}
