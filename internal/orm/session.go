package orm

import (
	"fmt"
	"slices"
	"strings"

	"weseer/internal/concolic"
	"weseer/internal/schema"
	"weseer/internal/sqlast"
	"weseer/internal/trace"
)

// Session is the persistence context: one unit of work with a first-level
// read cache and a write-behind queue. Sessions outlive individual
// transactions — the paper's Fig. 1 reads Order o from a cache populated
// before the transaction began — and are not safe for concurrent use.
type Session struct {
	m    *Mapping
	conn *concolic.Conn

	// caches[i] is the read cache (pk → *Entity) of tables[i]. It is a
	// SymMap so cache probes generate the Alg. 1 existence path conditions.
	tables []string
	caches []*concolic.SymMap

	// Write-behind state: pending INSERTs (Persist/Merge), dirty managed
	// entities in first-modification order, and pending DELETEs.
	pendingNew []*Entity
	dirtyOrder []*Entity
	pendingDel []*Entity

	// args is the flushed statements' parameter scratch: the driver keeps
	// no parameter slice.
	args []concolic.Value
}

// NewSession opens a persistence context over a connection.
func NewSession(m *Mapping, conn *concolic.Conn) *Session {
	return &Session{m: m, conn: conn}
}

// Conn exposes the underlying driver connection.
func (s *Session) Conn() *concolic.Conn { return s.conn }

// Mapping returns the session's ORM metadata.
func (s *Session) Mapping() *Mapping { return s.m }

func (s *Session) engine() *concolic.Engine { return s.conn.Engine() }

// here captures the code location of the caller's caller — the
// application code that invoked an ORM operation — the operation's one
// stack walk (a query is sent where it is triggered). An engine that is off
// records nothing, so no stack is walked for it.
func (s *Session) here() trace.CodeLoc {
	if s.engine().Mode() == concolic.ModeOff {
		return trace.CodeLoc{}
	}
	return concolic.Here(3)
}

// tableCache returns the table's read cache, creating it on first use.
func (s *Session) tableCache(table string) *concolic.SymMap {
	if i := slices.Index(s.tables, table); i >= 0 {
		return s.caches[i]
	}
	hint := s.m.text(textKey{kind: 'C', table: table}, func() string { return "cache." + table })
	c := s.engine().NewSymMap(hint, s.m.pkColumn(table).Type.Sort())
	s.tables, s.caches = append(s.tables, table), append(s.caches, c)
	return c
}

// Begin starts a database transaction.
func (s *Session) Begin() error { return s.conn.Begin() }

// Commit flushes the write-behind queue and commits. On any error the
// transaction is rolled back.
func (s *Session) Commit() error {
	if err := s.Flush(); err != nil {
		s.Rollback()
		return err
	}
	return s.conn.Commit()
}

// Rollback aborts the transaction and clears the persistence context, as
// Hibernate does: nothing the transaction buffered is sent later, and
// nothing it read or wrote is served from the read cache.
func (s *Session) Rollback() error {
	for _, en := range s.dirtyOrder {
		en.dirty = 0
	}
	s.pendingNew, s.dirtyOrder, s.pendingDel = nil, nil, nil
	s.tables, s.caches = nil, nil
	return s.conn.Rollback()
}

// Transactional runs fn inside a transaction, mirroring the
// @Transactional annotation: commit on success (flushing buffered
// writes), roll back on error. Database errors surfacing as FlushError
// panics (Hibernate's unchecked exceptions) are converted to errors.
func (s *Session) Transactional(fn func() error) error {
	if err := s.Begin(); err != nil {
		return err
	}
	if err := Guard(fn); err != nil {
		s.Rollback()
		return err
	}
	return s.Commit()
}

// Guard runs fn, converting FlushError panics (the ORM's analog of
// Hibernate's unchecked persistence exceptions) into returned errors.
func Guard(fn func() error) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if fe, ok := r.(*FlushError); ok {
			err = fe
			return
		}
		panic(r)
	}()
	return fn()
}

// ---------------------------------------------------------------------------
// Reads

// Find returns the entity with the given primary key, consulting the read
// cache first: a cache hit sends no SQL (Sec. II-B), a miss issues an
// eager point SELECT. It returns nil when the row does not exist.
func (s *Session) Find(table string, id concolic.Value) *Entity {
	cache := s.tableCache(table)
	if v, ok := cache.Get(id); ok {
		return v.(*Entity)
	}
	rows, err := s.conn.Exec(s.pointSelect(table), []concolic.Value{id}, s.here(), trace.CodeLoc{})
	if err != nil {
		panic(&FlushError{Err: err})
	}
	if rows.Empty() {
		return nil
	}
	return s.hydrateAlias(table, s.aliasColumns(table, "t", rows), rows, 0)
}

// pointSelect is the eager SELECT of Find and Merge: one row by primary
// key under alias t.
func (s *Session) pointSelect(table string) string {
	t := s.m.scm.Table(table)
	return s.m.text(textKey{kind: 'S', table: table}, func() string {
		return fmt.Sprintf("SELECT * FROM %s t WHERE t.%s = ?", table, t.PrimaryIndex().Columns[0])
	})
}

// Query runs an eager SELECT and hydrates every referenced alias's rows
// into the read cache; it returns the entities of the given target alias
// in row order (duplicates collapse to the cached entity).
func (s *Session) Query(sql string, params []concolic.Value, target string) []*Entity {
	return s.query(sql, params, target, s.here())
}

func (s *Session) query(sql string, params []concolic.Value, target string, trigger trace.CodeLoc) []*Entity {
	prep, err := concolic.Prepare(sql)
	if err != nil {
		panic(fmt.Sprintf("orm: %v", err))
	}
	sel, ok := prep.Stmt.(*sqlast.Select)
	if !ok {
		panic("orm: Query requires a SELECT")
	}
	if _, ok := prep.Aliases[target]; !ok {
		panic(fmt.Sprintf("orm: target alias %q not in %q", target, sql))
	}
	// Hydrate in FROM/JOIN order, never map order: which entity cache is
	// created first names the cache.<Table>@N containers and orders the
	// Alg. 1 path conditions.
	refs := []sqlast.TableRef{sel.From}
	for _, j := range sel.Joins {
		refs = append(refs, j.Ref)
	}
	rows, err := s.conn.Exec(sql, params, trigger, trace.CodeLoc{})
	if err != nil {
		panic(&FlushError{Err: err})
	}
	if rows.Empty() {
		return nil
	}
	var colBuf [4]colRun
	cols := colBuf[:0]
	for _, ref := range refs {
		cols = append(cols, s.aliasColumns(ref.Table, ref.Alias(), rows))
	}
	var out []*Entity
	seen := map[*Entity]bool{}
	for ri := 0; ri < rows.Len(); ri++ {
		for i, ref := range refs {
			en := s.hydrateAlias(ref.Table, cols[i], rows, ri)
			if ref.Alias() == target && en != nil && !seen[en] {
				seen[en] = true
				out = append(out, en)
			}
		}
	}
	return out
}

// colRun is where an alias's columns sit in a result row: the table's
// columns in table order from at on, as SELECT * lists them, and the
// primary key at pk.
type colRun struct{ at, pk int }

// aliasColumns locates an alias's columns in a result header. One header
// search per query, none per row.
func (s *Session) aliasColumns(table, alias string, rows *concolic.Rows) colRun {
	t := s.m.scm.Table(table)
	find := func(col string) int {
		for i, c := range rows.Cols {
			if len(c) == len(alias)+1+len(col) && c[:len(alias)] == alias && c[len(alias)] == '.' && c[len(alias)+1:] == col {
				return i
			}
		}
		panic(fmt.Sprintf("orm: no column %s.%s in result (%v)", alias, col, rows.Cols))
	}
	run := colRun{at: find(t.Columns[0].Name), pk: find(t.PrimaryIndex().Columns[0])}
	for i, c := range t.Columns {
		if find(c.Name) != run.at+i {
			panic(fmt.Sprintf("orm: columns of %s out of table order in result (%v)", alias, rows.Cols))
		}
	}
	return run
}

// hydrateAlias loads one alias's columns of one result row into an entity,
// reusing the cached instance when present (the read cache wins over fresh
// database state, as Hibernate's first-level cache does). The run of cells
// becomes the entity's fields as it is: the session hands its results to no
// one else.
func (s *Session) hydrateAlias(table string, run colRun, rows *concolic.Rows, ri int) *Entity {
	row := rows.Row(ri)
	id := row[run.pk]
	if id.Null {
		return nil // outer-ish join miss
	}
	cache := s.tableCache(table)
	if v, ok := cache.Get(id); ok {
		return v.(*Entity)
	}
	cols := s.m.cols[table]
	en := &Entity{Table: table, cols: cols, fields: row[run.at : run.at+len(cols) : run.at+len(cols)], state: stateManaged}
	cache.Put(id, en)
	return en
}

// Lazy returns a lazily-loaded collection handle. No SQL is sent until
// Items is first called — the deferral that makes statement order differ
// from program order.
func (s *Session) Lazy(owner *Entity, collection string) *LazyList {
	return &LazyList{s: s, owner: owner, spec: s.m.collection(owner.Table, collection)}
}

// LazyList is a lazily-loaded to-many association.
type LazyList struct {
	s      *Session
	owner  *Entity
	spec   *Collection
	loaded bool
	items  []*Entity
}

// Items loads the collection on first use (recording the access site as
// the SELECT's trigger code, per Sec. VI's lazy-read rule) and returns
// the member entities.
func (ll *LazyList) Items() []*Entity {
	if !ll.loaded {
		params := make([]concolic.Value, len(ll.spec.OwnerParams))
		for i, col := range ll.spec.OwnerParams {
			params[i] = ll.owner.Get(col)
		}
		ll.items = ll.s.query(ll.spec.SQL, params, ll.spec.Target, ll.s.here())
		ll.loaded = true
	}
	return ll.items
}

// Loaded reports whether the collection has been fetched.
func (ll *LazyList) Loaded() bool { return ll.loaded }

// ---------------------------------------------------------------------------
// Writes

// NewEntity creates a transient entity with every column NULL.
func (s *Session) NewEntity(table string) *Entity {
	t := s.m.scm.Table(table)
	if t == nil {
		panic("orm: unknown table " + table)
	}
	en := &Entity{Table: table, cols: s.m.cols[table], fields: make([]concolic.Value, len(t.Columns)), state: stateNew}
	for i, c := range t.Columns {
		en.fields[i] = concolic.NullValue(c.Type.Sort())
	}
	return en
}

// Set assigns a column value. On a managed entity this is an implicit
// lazy write: the UPDATE is buffered and this call site becomes its
// trigger code.
func (s *Session) Set(en *Entity, col string, v concolic.Value) {
	i := en.pos(col)
	en.fields[i] = v
	if en.state != stateManaged {
		return
	}
	if en.dirty == 0 {
		s.dirtyOrder = append(s.dirtyOrder, en)
	}
	en.dirty |= 1 << uint(i)
	en.modLoc = s.here()
}

// Persist schedules a transient entity for INSERT at the next flush.
// Unlike Merge it issues no SELECT — the fix (f1) for deadlock d1.
func (s *Session) Persist(en *Entity) {
	if en.state != stateNew {
		panic("orm: Persist of a managed entity")
	}
	en.persistLoc = s.here()
	s.pendingNew = append(s.pendingNew, en)
	pk := s.m.scm.Table(en.Table).PrimaryIndex().Columns[0]
	s.tableCache(en.Table).Put(en.Get(pk), en)
}

// Merge is Hibernate's merge: it issues an eager SELECT for the entity's
// key and then schedules an INSERT (row absent) or buffered UPDATE (row
// present). The SELECT's range lock on an absent key followed by the
// INSERT is the paper's deadlock d1.
func (s *Session) Merge(en *Entity) *Entity {
	t := s.m.scm.Table(en.Table)
	pkCol := t.PrimaryIndex().Columns[0]
	id := en.Get(pkCol)
	loc := s.here()
	rows, err := s.conn.Exec(s.pointSelect(en.Table), []concolic.Value{id}, loc, trace.CodeLoc{})
	if err != nil {
		panic(&FlushError{Err: err})
	}
	if rows.Empty() {
		en.persistLoc = loc
		en.state = stateNew
		s.pendingNew = append(s.pendingNew, en)
		s.tableCache(en.Table).Put(id, en)
		return en
	}
	// Row exists: copy the detached state onto the managed instance.
	managed := s.hydrateAlias(en.Table, s.aliasColumns(en.Table, "t", rows), rows, 0)
	for i, c := range t.Columns {
		if c.Name != pkCol {
			s.Set(managed, c.Name, en.fields[i])
		}
	}
	return managed
}

// Remove schedules a managed entity for DELETE at flush.
func (s *Session) Remove(en *Entity) {
	en.state = stateRemoved
	en.persistLoc = s.here()
	s.pendingDel = append(s.pendingDel, en)
	pk := s.m.scm.Table(en.Table).PrimaryIndex().Columns[0]
	s.tableCache(en.Table).Remove(en.Get(pk))
}

// FlushError wraps a database error surfaced through the ORM. The
// application layer treats it like Hibernate's runtime exceptions.
type FlushError struct{ Err error }

func (e *FlushError) Error() string { return "orm: " + e.Err.Error() }
func (e *FlushError) Unwrap() error { return e.Err }

// Flush drains the write-behind cache: buffered INSERTs first, then
// UPDATEs in first-modification order, then DELETEs — the reordering
// relative to program order that hides deadlocks d5/d6 (and that fix f4
// exploits by flushing early). Every statement it sends carries the flush
// site from one walk — through here(), or ModeOff load would pay for it.
func (s *Session) Flush() error {
	if len(s.pendingNew)+len(s.dirtyOrder)+len(s.pendingDel) == 0 {
		return nil
	}
	sent := s.here()
	for _, en := range s.pendingNew {
		if err := s.flushInsert(en, sent); err != nil {
			return err
		}
		en.state = stateManaged
	}
	s.pendingNew = nil
	for _, en := range s.dirtyOrder {
		if err := s.flushUpdate(en, sent); err != nil {
			return err
		}
		en.dirty = 0
	}
	s.dirtyOrder = nil
	for _, en := range s.pendingDel {
		if err := s.flushDelete(en, sent); err != nil {
			return err
		}
	}
	s.pendingDel = nil
	return nil
}

func (s *Session) flushInsert(en *Entity, sent trace.CodeLoc) error {
	t := s.m.scm.Table(en.Table)
	// NULL fields are left out of the statement.
	var present uint64
	for i, v := range en.fields {
		if !v.Null {
			present |= 1 << uint(i)
		}
	}
	sql := s.m.text(textKey{kind: 'I', table: en.Table, cols: present}, func() string {
		names := selectNames(t, present, "")
		marks := strings.TrimSuffix(strings.Repeat("?, ", len(names)), ", ")
		return fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)", en.Table, strings.Join(names, ", "), marks)
	})
	_, err := s.conn.Exec(sql, s.params(en, present), en.persistLoc, sent)
	return err
}

func (s *Session) flushUpdate(en *Entity, sent trace.CodeLoc) error {
	t := s.m.scm.Table(en.Table)
	pkCol := t.PrimaryIndex().Columns[0]
	sql := s.m.text(textKey{kind: 'U', table: en.Table, cols: en.dirty}, func() string {
		return fmt.Sprintf("UPDATE %s SET %s WHERE %s = ?", en.Table, strings.Join(selectNames(t, en.dirty, " = ?"), ", "), pkCol)
	})
	_, err := s.conn.Exec(sql, s.params(en, en.dirty, en.Get(pkCol)), en.modLoc, sent)
	return err
}

// params gathers the values of an entity's column set, in column order,
// followed by more, into the parameter scratch.
func (s *Session) params(en *Entity, set uint64, more ...concolic.Value) []concolic.Value {
	s.args = s.args[:0]
	for i, v := range en.fields {
		if set&(1<<uint(i)) != 0 {
			s.args = append(s.args, v)
		}
	}
	s.args = append(s.args, more...)
	return s.args
}

// selectNames returns the names of a column set's columns, in column order,
// each followed by suffix.
func selectNames(t *schema.Table, set uint64, suffix string) []string {
	var names []string
	for i, c := range t.Columns {
		if set&(1<<uint(i)) != 0 {
			names = append(names, c.Name+suffix)
		}
	}
	return names
}

func (s *Session) flushDelete(en *Entity, sent trace.CodeLoc) error {
	t := s.m.scm.Table(en.Table)
	pkCol := t.PrimaryIndex().Columns[0]
	sql := s.m.text(textKey{kind: 'D', table: en.Table}, func() string {
		return fmt.Sprintf("DELETE FROM %s WHERE %s = ?", en.Table, pkCol)
	})
	_, err := s.conn.Exec(sql, []concolic.Value{en.Get(pkCol)}, en.persistLoc, sent)
	return err
}

// Exec sends an ad-hoc statement through the session's connection —
// applications use it for hand-written SQL such as fix f2's UPSERT.
func (s *Session) Exec(sql string, params []concolic.Value) (*concolic.Rows, error) {
	return s.conn.Exec(sql, params, s.here(), trace.CodeLoc{})
}
