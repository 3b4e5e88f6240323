package appkit

import (
	"fmt"
	"slices"
	"strings"
)

// FixID splits the catalog entry's fix into its id and description
// ("f2: Use MySQL UPSERT mechanism" → "f2", "Use MySQL UPSERT mechanism").
func (e Expectation) FixID() (id, desc string) {
	id, desc, _ = strings.Cut(e.Fix, ":")
	return strings.TrimSpace(id), strings.TrimSpace(desc)
}

// FixIDs lists the catalog's distinct fix ids in catalog order: the fixes
// a model application can apply (f1–f8 for Broadleaf, in Fig. 10 order).
func FixIDs(catalog []Expectation) []string {
	var out []string
	for _, e := range catalog {
		if id, _ := e.FixID(); !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	return out
}

// Fixes resolves the fix names an application is opened with against the
// fixes it has (a model app's FixIDs, a generated corpus's planted
// classes) and returns them as a set; "all" stands for every fix it has.
// It is the one place a fix name is validated.
func Fixes(app string, have, names []string) (map[string]bool, error) {
	set := map[string]bool{}
	for _, n := range names {
		switch {
		case n == "all":
			for _, h := range have {
				set[h] = true
			}
		case slices.Contains(have, n):
			set[n] = true
		default:
			return nil, fmt.Errorf("%s has no fix %q (have: %s)", app, n, strings.Join(append(slices.Clip(have), "all"), ", "))
		}
	}
	return set, nil
}
