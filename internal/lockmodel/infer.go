// Package lockmodel implements WeSEER's fine-grained database lock
// modeling (Sec. V-C): inferring which indexes a statement's execution
// can use (via the index usage graph and its topological sorts),
// generating the row/range/table locks the database would acquire during
// index traversal (Alg. 2), and producing the first-order conflict
// conditions between potentially conflicting statements, including the
// enlarged conditions for range locks (Alg. 3).
package lockmodel

import (
	"sort"
	"strings"

	"weseer/internal/schema"
	"weseer/internal/sqlast"
)

// IndexUse is one possible way a statement accesses one table: the index
// traversed (nil for a full table scan) and the query predicates related
// to it that were available when the index was used.
type IndexUse struct {
	Alias string
	Table string
	// Index is nil when the table can only be scanned in full.
	Index *schema.Index
	// Preds are the statement's query-condition predicates related to the
	// index whose other side was available (parameters, constants, or
	// columns of tables fetched earlier in the topological sort).
	Preds []sqlast.Pred
}

// InferPossibleIndexes builds the index usage graph for a statement and
// returns every (index, predicates) pair used by some topological sort
// starting from the SQL parameters (Sec. V-C2). A sort visits a table via
// an index once that index's predicates can be evaluated from data
// already available, mirroring how the database feeds one table's output
// into the next index lookup. For the paper's Q4 this yields
// index(OrderItem,sec,O_ID) from the parameter, then the Orders and
// Product primary indexes — but never index(OrderItem,sec,P_ID), which
// would require scanning Product first. Aliases no sort reaches are
// reported with a nil Index: a full table scan.
func InferPossibleIndexes(st sqlast.Stmt, scm *schema.Schema) []IndexUse {
	aliases := sqlast.AliasMapOf(st)
	preds := sqlast.QueryCondOf(st).Preds

	allAliases := make([]string, 0, len(aliases))
	for a := range aliases {
		allAliases = append(allAliases, a)
	}
	sort.Strings(allAliases)

	usedKey := map[string]bool{}
	var used []IndexUse
	reachable := map[string]bool{}

	var walk func(avail map[string]bool)
	walk = func(avail map[string]bool) {
		progressed := false
		for _, a := range allAliases {
			if avail[a] {
				continue
			}
			t := scm.Table(aliases[a])
			if t == nil {
				continue
			}
			for _, ix := range t.Indexes {
				ps := availablePreds(preds, a, ix, avail)
				if len(ps) == 0 {
					continue
				}
				progressed = true
				reachable[a] = true
				key := a + "|" + ix.Name + "|" + predsKey(ps)
				if !usedKey[key] {
					usedKey[key] = true
					used = append(used, IndexUse{Alias: a, Table: aliases[a], Index: ix, Preds: ps})
				}
				avail[a] = true
				walk(avail)
				delete(avail, a)
			}
		}
		if progressed {
			return
		}
		// No index applies: the database full-scans one remaining table
		// to make progress (its data then feeds later indexes).
		for _, a := range allAliases {
			if avail[a] {
				continue
			}
			avail[a] = true
			walk(avail)
			delete(avail, a)
		}
	}
	walk(map[string]bool{})

	for _, a := range allAliases {
		if !reachable[a] {
			used = append(used, IndexUse{Alias: a, Table: aliases[a]})
		}
	}
	return used
}

// availablePreds returns the predicates related to (alias, ix) whose
// other side is currently available: a parameter, a constant, or a column
// of an already-fetched alias.
func availablePreds(preds []sqlast.Pred, alias string, ix *schema.Index, avail map[string]bool) []sqlast.Pred {
	var out []sqlast.Pred
	for _, p := range preds {
		if p.IsNull {
			continue
		}
		var other sqlast.Operand
		switch {
		case p.L.Kind == sqlast.Col && p.L.Table == alias && ix.Covers(p.L.Column):
			other = p.R
		case p.R.Kind == sqlast.Col && p.R.Table == alias && ix.Covers(p.R.Column):
			other = p.L
		default:
			continue
		}
		if other.Kind == sqlast.Col {
			if other.Table == alias || !avail[other.Table] {
				continue
			}
		}
		out = append(out, p)
	}
	return out
}

func predsKey(ps []sqlast.Pred) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, "&")
}
