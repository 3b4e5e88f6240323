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
	// cols gives each table's column positions: the order of an entity's
	// fields and of its column bit sets.
	cols map[string]map[string]int

	// texts caches the statement text sessions generate, which depends on
	// the table and the columns taking part, not on the row.
	textMu sync.Mutex
	texts  map[textKey]string
}

// textKey names one generated statement: its kind ('S' point SELECT, 'I'
// INSERT, 'U' UPDATE, 'D' DELETE), table, and the participating columns
// as a bit set over the table's column order ('C': a read cache's name).
type textKey struct {
	kind  byte
	table string
	cols  uint64
}

// NewMapping creates a mapping over a complete schema. A table is limited
// to 64 columns, the width of a column bit set.
func NewMapping(scm *schema.Schema) *Mapping {
	m := &Mapping{scm: scm, collections: map[string]map[string]*Collection{},
		cols: map[string]map[string]int{}, texts: map[textKey]string{}}
	for _, t := range scm.Tables() {
		if len(t.Columns) > 64 {
			panic(fmt.Sprintf("orm: table %s has more than 64 columns", t.Name))
		}
		m.cols[t.Name] = make(map[string]int, len(t.Columns))
		for i, c := range t.Columns {
			m.cols[t.Name][c.Name] = i
		}
	}
	return m
}

// text returns the cached statement text for the key, building it on
// first use.
func (m *Mapping) text(key textKey, build func() string) string {
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

// Entity is a persistent object: a record of column values. Field values
// are concolic, so data flow from SELECT results through object state into
// later statement parameters is tracked symbolically.
type Entity struct {
	Table string

	// cols is the table's column positions (Mapping.cols); fields holds
	// the values in that order and dirty the modified columns as a bit set
	// over it.
	cols   map[string]int
	fields []concolic.Value
	state  entityState
	dirty  uint64
	// modLoc is the last modification site: the trigger code of the
	// implicit lazy write this entity's eventual UPDATE corresponds to
	// (Sec. VI).
	modLoc trace.CodeLoc
	// persistLoc is the Persist/Merge call site for pending INSERTs.
	persistLoc trace.CodeLoc
}

// pos returns a column's position, panicking on an unknown column.
func (en *Entity) pos(col string) int {
	i, ok := en.cols[col]
	if !ok {
		panic(fmt.Sprintf("orm: entity %s has no field %s", en.Table, col))
	}
	return i
}

// Get returns the value of a column.
func (en *Entity) Get(col string) concolic.Value { return en.fields[en.pos(col)] }

// Fields returns the column names, sorted.
func (en *Entity) Fields() []string {
	out := make([]string, 0, len(en.cols))
	for c := range en.cols {
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
		fmt.Fprintf(&b, "%s=%s", c, en.Get(c))
	}
	b.WriteString("}")
	return b.String()
}
