// Package orm is a miniature object-relational mapper with the Hibernate
// behaviors the paper identifies as obscuring transaction logic (Sec.
// II-B): a first-level read cache that satisfies repeated reads without
// SQL, a write-behind cache that buffers modifications and flushes them
// at commit (reordering statements relative to program order), lazy
// collection loading that defers SELECTs until first access, and the
// merge-vs-persist distinction behind deadlock d1. It runs over the
// concolic driver connection, so the trace collector observes exactly the
// statements a real ORM would send.
package orm

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"weseer/internal/concolic"
	"weseer/internal/schema"
	"weseer/internal/smt"
	"weseer/internal/sqlast"
	"weseer/internal/trace"
)

// Collection declares a lazily-loaded relation: the join SELECT issued on
// first access and how its result hydrates entities. This mirrors
// Hibernate association mappings compiled to fetch queries like the
// paper's Q4.
type Collection struct {
	// Name identifies the collection on the owning entity.
	Name string
	// SQL is the fetch template; every referenced alias's entities are
	// hydrated into the session read cache.
	SQL string
	// OwnerParams are the owning entity's columns bound to the template's
	// '?' parameters, in order.
	OwnerParams []string
	// Target is the alias whose entities form the collection result.
	Target string
}

// Mapping holds per-table ORM metadata.
type Mapping struct {
	scm         *schema.Schema
	collections map[string]map[string]*Collection

	// texts caches the statement text sessions generate, which depends on
	// the table and the columns taking part, not on the row.
	textMu sync.Mutex
	texts  map[textKey]string
}

// textKey names one generated statement: its kind ('S' point SELECT, 'I'
// INSERT, 'U' UPDATE, 'D' DELETE), table, and the participating columns
// as a bit set over the table's column order.
type textKey struct {
	kind  byte
	table string
	cols  uint64
}

// NewMapping creates a mapping over a schema.
func NewMapping(scm *schema.Schema) *Mapping {
	return &Mapping{scm: scm, collections: map[string]map[string]*Collection{}, texts: map[textKey]string{}}
}

// text returns the cached statement text for the key, building it on
// first use. Tables wider than the bit set are not cached.
func (m *Mapping) text(key textKey, t *schema.Table, build func() string) string {
	if len(t.Columns) > 64 {
		return build()
	}
	m.textMu.Lock()
	defer m.textMu.Unlock()
	sql, ok := m.texts[key]
	if !ok {
		sql = build()
		m.texts[key] = sql
	}
	return sql
}

// Schema returns the mapped schema.
func (m *Mapping) Schema() *schema.Schema { return m.scm }

// AddCollection registers a lazy collection on a table.
func (m *Mapping) AddCollection(table string, c Collection) {
	t := m.scm.Table(table)
	if t == nil {
		panic("orm: unknown table " + table)
	}
	if _, err := sqlast.Parse(c.SQL); err != nil {
		panic(fmt.Sprintf("orm: collection %s.%s SQL: %v", table, c.Name, err))
	}
	for _, col := range c.OwnerParams {
		if t.Column(col) == nil {
			panic(fmt.Sprintf("orm: collection %s.%s param column %s missing", table, c.Name, col))
		}
	}
	byName := m.collections[table]
	if byName == nil {
		byName = map[string]*Collection{}
		m.collections[table] = byName
	}
	byName[c.Name] = &c
}

func (m *Mapping) collection(table, name string) *Collection {
	c := m.collections[table][name]
	if c == nil {
		panic(fmt.Sprintf("orm: no collection %s on %s", name, table))
	}
	return c
}

// pkColumn returns the single primary-key column of a table. Composite
// keys are outside the supported subset (neither evaluated application
// uses them on entity tables).
func (m *Mapping) pkColumn(table string) schema.Column {
	t := m.scm.Table(table)
	pi := t.PrimaryIndex()
	if len(pi.Columns) != 1 {
		panic("orm: composite primary keys unsupported for entities: " + table)
	}
	return *t.Column(pi.Columns[0])
}

// entityState tracks an entity's persistence life cycle.
type entityState uint8

const (
	stateManaged entityState = iota // loaded from the database
	stateNew                        // scheduled for INSERT at flush
	stateRemoved                    // scheduled for DELETE at flush
)

// Entity is a persistent object: a dynamic record of column values. Field
// values are concolic, so data flow from SELECT results through object
// state into later statement parameters is tracked symbolically.
type Entity struct {
	Table string

	fields map[string]concolic.Value
	state  entityState
	dirty  map[string]bool
	// modLoc is the last modification site: the trigger code of the
	// implicit lazy write this entity's eventual UPDATE corresponds to
	// (Sec. VI).
	modLoc trace.CodeLoc
	// persistLoc is the Persist/Merge call site for pending INSERTs.
	persistLoc trace.CodeLoc
}

// Get returns the value of a column.
func (en *Entity) Get(col string) concolic.Value {
	v, ok := en.fields[col]
	if !ok {
		panic(fmt.Sprintf("orm: entity %s has no field %s", en.Table, col))
	}
	return v
}

// Fields returns the column names with assigned values, sorted.
func (en *Entity) Fields() []string {
	out := make([]string, 0, len(en.fields))
	for c := range en.fields {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func (en *Entity) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s{", en.Table)
	for i, c := range en.Fields() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", c, en.fields[c])
	}
	b.WriteString("}")
	return b.String()
}

// sortOf maps a column to its smt sort.
func sortOf(t *schema.Table, col string) smt.Sort {
	c := t.Column(col)
	if c == nil {
		panic(fmt.Sprintf("orm: unknown column %s.%s", t.Name, col))
	}
	return c.Type.Sort()
}
