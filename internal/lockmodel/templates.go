package lockmodel

import (
	"sort"
	"sync"

	"weseer/internal/schema"
	"weseer/internal/sqlast"
	"weseer/internal/trace"
)

// Templates memoizes the half of the lock model that depends only on a
// statement's template and a table, so that the many recorded instances
// of one template compute it once; what depends on an instance
// (parameters, results, the recorded plan) is still computed per call. A
// Templates belongs to one analysis, is safe for concurrent use, and
// hands out shared values that must not be modified.
type Templates struct {
	scm *schema.Schema
	m   sync.Map // templateKey → *templateLocks
}

// NewTemplates returns an empty memo over a schema.
func NewTemplates(scm *schema.Schema) *Templates { return &Templates{scm: scm} }

type templateKey struct {
	sql, table string
	empty      bool // shared locks depend on whether the read came back empty
}

type templateLocks struct {
	// locks are the statement's locks on the table as the "reader" side of
	// a conflict (readLocks): GenExclusiveLocks when it writes the table.
	locks    []Lock
	aliases  []string // the statement's aliases of the table, sorted
	aliasMap map[string]string
}

// of returns the template-level model of the statement on the table.
func (t *Templates) of(st *trace.Stmt, table string) *templateLocks {
	empty := st.Res != nil && st.Res.Empty
	k := templateKey{sql: st.SQL, table: table, empty: empty}
	if v, ok := t.m.Load(k); ok {
		return v.(*templateLocks)
	}
	tl := &templateLocks{
		locks:    readLocks(st.Parsed, t.scm, table, empty),
		aliasMap: sqlast.AliasMapOf(st.Parsed),
	}
	for alias, tab := range tl.aliasMap {
		if tab == table {
			tl.aliases = append(tl.aliases, alias)
		}
	}
	sort.Strings(tl.aliases)
	// Workers may race to build one template; the builds are equal.
	v, _ := t.m.LoadOrStore(k, tl)
	return v.(*templateLocks)
}

// locksFor returns the template's locks as the instance st holds them:
// restricted, with usePlans, to its recorded execution plan. The plan
// belongs to the instance, so the filtered set is not memoized.
func (tl *templateLocks) locksFor(st *trace.Stmt, usePlans bool) []Lock {
	if usePlans {
		return FilterByPlan(tl.locks, st.Plan)
	}
	return tl.locks
}
