package staticlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"weseer/internal/schema"
	"weseer/internal/sqlast"
)

// sortFuncs are the sort-package calls that mark their first argument
// as ordered.
var sortFuncs = map[string]bool{"Slice": true, "SliceStable": true, "Sort": true, "Ints": true, "Strings": true, "Float64s": true}

// sessionMethods is Analyzer 2's view of the session API: the method
// names through which the ORM reads, locks, buffers, and flushes
// (interpret gives each its events: Query/Find/Exec/Lazy send statements
// and take locks at the call site, Set buffers a row modification until
// the flush). They are never resolved as callees.
var sessionMethods = map[string]bool{
	"Query": true, "Find": true, "Lazy": true, "Exec": true, "Set": true,
	"Persist": true, "Merge": true, "Remove": true, "Flush": true,
	"NewEntity": true, "Begin": true, "Commit": true, "Rollback": true,
	"Transactional": true, "Lock": true, "Unlock": true,
}

// event is one interpreted action of a function body, in source order.
type eventKind uint8

const (
	evWrite  eventKind = iota // buffered Set on a pre-existing entity
	evRead                    // session read: Query/Find/Lazy or a reading callee
	evFlush                   // explicit Flush
	evLock                    // lock-taking op: Query/Find/Exec/Lazy/.Lock() or callee
	evBegin                   // txn boundary: Begin or Transactional entry
	evCommit                  // txn boundary: Commit or Transactional exit
)

type event struct {
	kind    eventKind
	pos     token.Pos
	line    int
	uncond  bool   // evFlush: not inside a conditional/loop body
	entTab  string // evWrite: entity's table, "" if unresolved
	col     string // evWrite: written column
	summary bool   // event inferred from a callee summary

	// Provenance for whole-program (callgraph) summaries: where the
	// event really happens and the call chain that reaches it.
	leafFile string
	leafLine int
	path     []string // e.g. ["priceProducts", "dao.LockProduct"]
}

// Template fragments extracted for Analyzer 1. Finds and Sets need the
// schema (primary-key column) to materialize, so they stay symbolic
// until Shapes.
type tmplKind uint8

const (
	tmplSQL  tmplKind = iota // literal SQL passed to Query/Exec
	tmplFind                 // Find(table, id): primary-key point SELECT
	tmplSet                  // Set on existing entity: buffered UPDATE
)

type tmpl struct {
	kind       tmplKind
	pos        token.Pos // trigger site
	sentPos    token.Pos // send site: pos, the next Flush, or commit (last)
	line       int
	sql        string // tmplSQL
	table, col string // tmplFind / tmplSet

	// Set for templates inlined from a callee summary: the file the
	// template really lives in (line above is then the leaf line too)
	// and the call chain that reaches it.
	file string
	path []string
}

// callSite is an unresolved non-session call recorded during
// interpretation; the call-graph layer resolves it with go/types and
// splices the callee's transitive summary back in at pos.
type callSite struct {
	call     *ast.CallExpr
	pos      token.Pos
	line     int
	name     string
	isMethod bool
	inCond   bool // site is inside a conditional/loop body
}

type loopInfo struct {
	pos       token.Pos
	line      int
	body      [2]token.Pos
	rangedVar string // ident ranged over, "" for non-ident expressions
	rangeExpr string // printable form for the finding detail
}

type ifInfo struct {
	pos      token.Pos
	line     int
	emptyVar string // Cond is len(emptyVar) == 0
	body     [2]token.Pos
}

// fnFacts is everything the detectors and the template extraction need
// about one function, produced by a single in-order interpretation.
type fnFacts struct {
	name     string
	file     string
	events   []event
	tmpls    []tmpl
	loops    []loopInfo
	ifs      []ifInfo
	conds    [][2]token.Pos // every conditional/loop body range, preorder
	merges   []event        // Merge call sites
	persists []event        // Persist call sites
	queried  map[string]bool
	calls    []callSite // non-session calls, for the call-graph layer
}

// recvIdent returns the first receiver ident of a method declaration,
// the name heuristicSite matches a call's receiver against. A — illegal
// but parseable — multi-name receiver list (`func (a, b Foo) M()`)
// contributes its first name; "" means the receiver is unnamed
// (`func (Foo) M()`) or fd is a plain function.
func recvIdent(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	names := fd.Recv.List[0].Names
	if len(names) == 0 {
		return ""
	}
	return names[0].Name
}

// recvTypeName returns the bare receiver type name (`Foo` for `*Foo`,
// `Foo`, or `Foo[T]`), used for display names in provenance chains.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// methodName returns the selector method name of a call (`x.M(...)`).
func methodName(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	return sel.Sel.Name, true
}

func identName(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func strLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

func looksLikeSQL(s string) bool {
	up := strings.ToUpper(strings.TrimSpace(s))
	for _, kw := range []string{"SELECT ", "INSERT ", "UPDATE ", "DELETE "} {
		if strings.HasPrefix(up, kw) {
			return true
		}
	}
	return false
}

// interpret runs the single in-source-order pass over one function body,
// tracking entity origins (NewEntity / Find / Query rows) and recording
// events, template fragments, loops, branch shapes, and the non-session
// call sites the call-graph layer resolves. Template send positions are
// not final until callGraph.splice has run orderSends over the spliced
// event stream.
func interpret(fset *token.FileSet, fd *ast.FuncDecl) *fnFacts {
	pos := fset.Position(fd.Pos())
	facts := &fnFacts{name: fd.Name.Name, file: filepath.ToSlash(pos.Filename), queried: map[string]bool{}}

	// Collection pass: gather nodes, then process calls in source order.
	type copyAct struct {
		pos token.Pos
		lhs string
		rhs ast.Expr
	}
	var copies []copyAct
	var calls []*ast.CallExpr
	binds := map[*ast.CallExpr][]string{} // call -> LHS idents
	var condRanges [][2]token.Pos
	sorted := map[string]bool{}
	rangeBind := map[string]string{} // range value ident -> source collection ident
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			calls = append(calls, s)
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 {
				if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
					for _, l := range s.Lhs {
						if name := identName(l); name != "" && name != "_" {
							binds[call] = append(binds[call], name)
						}
					}
				} else if len(s.Lhs) == 1 {
					if name := identName(s.Lhs[0]); name != "" && name != "_" {
						copies = append(copies, copyAct{pos: s.Pos(), lhs: name, rhs: s.Rhs[0]})
					}
				}
			}
		case *ast.IfStmt:
			condRanges = append(condRanges, [2]token.Pos{s.Body.Pos(), s.Body.End()})
			if s.Else != nil {
				condRanges = append(condRanges, [2]token.Pos{s.Else.Pos(), s.Else.End()})
			}
			if v, ok := lenIsZero(s.Cond); ok {
				facts.ifs = append(facts.ifs, ifInfo{
					pos: s.Pos(), line: fset.Position(s.Pos()).Line,
					emptyVar: v, body: [2]token.Pos{s.Body.Pos(), s.Body.End()},
				})
			}
		case *ast.ForStmt:
			condRanges = append(condRanges, [2]token.Pos{s.Body.Pos(), s.Body.End()})
		case *ast.RangeStmt:
			condRanges = append(condRanges, [2]token.Pos{s.Body.Pos(), s.Body.End()})
			li := loopInfo{
				pos: s.Pos(), line: fset.Position(s.Pos()).Line,
				body:      [2]token.Pos{s.Body.Pos(), s.Body.End()},
				rangedVar: identName(s.X),
				rangeExpr: exprString(s.X),
			}
			facts.loops = append(facts.loops, li)
			if v := identName(s.Value); v != "" && li.rangedVar != "" {
				rangeBind[v] = li.rangedVar
			}
		case *ast.CaseClause:
			if len(s.Body) > 0 {
				condRanges = append(condRanges, [2]token.Pos{s.Body[0].Pos(), s.Body[len(s.Body)-1].End()})
			}
		}
		return true
	})
	sort.Slice(calls, func(i, j int) bool { return calls[i].Pos() < calls[j].Pos() })
	facts.conds = condRanges // retained: splice scopes its dedup per context
	inCond := func(at token.Pos) bool {
		for _, r := range condRanges {
			if at >= r[0] && at < r[1] {
				return true
			}
		}
		return false
	}

	newEnts := map[string]bool{}       // idents created by NewEntity here
	entityTable := map[string]string{} // entity ident -> table
	queryVar := map[string]string{}    // query-result slice ident -> table

	resolveEntity := func(e ast.Expr) (table string, isNew bool, known bool) {
		switch x := e.(type) {
		case *ast.Ident:
			if newEnts[x.Name] {
				return entityTable[x.Name], true, true
			}
			if t, ok := entityTable[x.Name]; ok {
				return t, false, true
			}
			if src, ok := rangeBind[x.Name]; ok {
				if t, ok := queryVar[src]; ok {
					return t, false, true
				}
			}
		case *ast.IndexExpr:
			if base := identName(x.X); base != "" {
				if t, ok := queryVar[base]; ok {
					return t, false, true
				}
			}
		}
		return "", false, false
	}

	// applyCopies propagates entity/result-set origins through plain
	// `x := y` / `x := rows[i]` assignments, in source order.
	sort.Slice(copies, func(i, j int) bool { return copies[i].pos < copies[j].pos })
	applyCopies := func(upTo token.Pos) {
		for len(copies) > 0 && copies[0].pos <= upTo {
			c := copies[0]
			copies = copies[1:]
			switch r := c.rhs.(type) {
			case *ast.Ident:
				if t, ok := entityTable[r.Name]; ok {
					entityTable[c.lhs] = t
					if newEnts[r.Name] {
						newEnts[c.lhs] = true
					} else {
						delete(newEnts, c.lhs)
					}
				} else if src, ok := rangeBind[r.Name]; ok {
					if t := queryVar[src]; t != "" {
						entityTable[c.lhs] = t
						delete(newEnts, c.lhs)
					}
				} else if t, ok := queryVar[r.Name]; ok {
					queryVar[c.lhs] = t
				}
			case *ast.IndexExpr:
				if base := identName(r.X); base != "" {
					if t, ok := queryVar[base]; ok && t != "" {
						entityTable[c.lhs] = t
						delete(newEnts, c.lhs)
					}
				}
			}
		}
	}

	addEvent := func(e event) { facts.events = append(facts.events, e) }

	for _, call := range calls {
		at := call.Pos()
		applyCopies(at)
		line := fset.Position(at).Line
		// sort.<Fn>(x, ...) marks x as ordered.
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if identName(sel.X) == "sort" && sortFuncs[sel.Sel.Name] && len(call.Args) > 0 {
				if v := identName(call.Args[0]); v != "" {
					sorted[v] = true
				}
				continue
			}
		}
		m, isMethod := methodName(call)
		if !isMethod {
			m = identName(call.Fun)
		}
		switch {
		case m == "NewEntity" && isMethod:
			for _, lhs := range binds[call] {
				newEnts[lhs] = true
				if len(call.Args) > 0 {
					if t, ok := strLit(call.Args[0]); ok {
						entityTable[lhs] = t
					}
				}
			}
		case m == "Find" && isMethod:
			tab := ""
			if len(call.Args) > 0 {
				tab, _ = strLit(call.Args[0])
			}
			for _, lhs := range binds[call] {
				delete(newEnts, lhs)
				if tab != "" {
					entityTable[lhs] = tab
				}
			}
			if tab != "" {
				facts.tmpls = append(facts.tmpls, tmpl{kind: tmplFind, pos: at, line: line, table: tab})
			}
			addEvent(event{kind: evRead, pos: at, line: line})
			addEvent(event{kind: evLock, pos: at, line: line})
		case m == "Query" && isMethod:
			tab := ""
			if len(call.Args) > 0 {
				if sql, ok := strLit(call.Args[0]); ok && looksLikeSQL(sql) {
					facts.tmpls = append(facts.tmpls, tmpl{kind: tmplSQL, pos: at, line: line, sql: sql})
					target := ""
					if len(call.Args) >= 3 {
						target, _ = strLit(call.Args[2])
					}
					tab = aliasTable(sql, target)
				}
			}
			for _, lhs := range binds[call] {
				queryVar[lhs] = tab
				facts.queried[lhs] = true
			}
			addEvent(event{kind: evRead, pos: at, line: line})
			addEvent(event{kind: evLock, pos: at, line: line})
		case m == "Lazy" && isMethod:
			addEvent(event{kind: evRead, pos: at, line: line})
			addEvent(event{kind: evLock, pos: at, line: line})
		case m == "Exec" && isMethod:
			if len(call.Args) > 0 {
				if sql, ok := strLit(call.Args[0]); ok && looksLikeSQL(sql) {
					facts.tmpls = append(facts.tmpls, tmpl{kind: tmplSQL, pos: at, line: line, sql: sql})
				}
			}
			addEvent(event{kind: evLock, pos: at, line: line})
		case m == "Set" && isMethod && len(call.Args) >= 2:
			tab, isNew, known := resolveEntity(call.Args[0])
			if isNew {
				break // building a new row: its lock is the Persist INSERT's
			}
			col, _ := strLit(call.Args[1])
			ev := event{kind: evWrite, pos: at, line: line, col: col}
			if known {
				ev.entTab = tab
			}
			addEvent(ev)
			if known && tab != "" && col != "" {
				facts.tmpls = append(facts.tmpls, tmpl{kind: tmplSet, pos: at, line: line, table: tab, col: col})
			}
		case m == "Persist" && isMethod:
			facts.persists = append(facts.persists, event{pos: at, line: line})
		case m == "Merge" && isMethod:
			facts.merges = append(facts.merges, event{pos: at, line: line})
			addEvent(event{kind: evRead, pos: at, line: line})
			addEvent(event{kind: evLock, pos: at, line: line})
		case m == "Flush" && isMethod:
			addEvent(event{kind: evFlush, pos: at, line: line, uncond: !inCond(at)})
		case m == "Lock":
			addEvent(event{kind: evLock, pos: at, line: line})
		case m == "Transactional" && isMethod:
			// The closure body is interpreted inline (ast.Inspect walks
			// it); the boundary events bracket everything inside.
			addEvent(event{kind: evBegin, pos: at, line: line})
			addEvent(event{kind: evCommit, pos: call.End(), line: fset.Position(call.End()).Line})
		case m == "Begin" && isMethod:
			addEvent(event{kind: evBegin, pos: at, line: line})
		case m == "Commit" && isMethod:
			addEvent(event{kind: evCommit, pos: at, line: line})
		case m != "" && !sessionMethods[m]:
			facts.calls = append(facts.calls, callSite{
				call: call, pos: at, line: line, name: m,
				isMethod: isMethod, inCond: inCond(at),
			})
		}
	}

	// Transactional's evCommit lands at the call's End, after the
	// closure body's events; restore global position order (stable, so
	// same-position events keep their emission order).
	sort.SliceStable(facts.events, func(i, j int) bool { return facts.events[i].pos < facts.events[j].pos })
	facts.loopsSuppress(sorted)
	return facts
}

// commitPos is the send position of a buffered write no unconditional
// Flush follows: the commit flush, after every statement sent in place.
const commitPos = token.Pos(1 << 30)

// slide is the write-behind rule, the one place vet decides it. A
// buffered write at pos is sent at the next unconditional Flush, or at
// commit when none follows. It slides when a session read comes after it
// and before that send, or, with no flush to follow, when it sits in a
// loop whose body reads (the next iteration reads before the commit). It
// runs only after callee summaries are spliced in, so inlined reads and
// flushes take part.
func (f *fnFacts) slide(pos token.Pos) (sent token.Pos, slid bool) {
	sent = commitPos
	for _, ev := range f.events {
		if ev.kind == evFlush && ev.uncond && ev.pos > pos {
			sent = ev.pos
			break
		}
	}
	for _, ev := range f.events {
		if ev.kind == evRead && ev.pos > pos && ev.pos < sent {
			return sent, true
		}
	}
	if sent != commitPos {
		return sent, false
	}
	for _, lp := range f.loops {
		if pos < lp.body[0] || pos >= lp.body[1] {
			continue
		}
		for _, ev := range f.events {
			if ev.kind == evRead && ev.pos >= lp.body[0] && ev.pos < lp.body[1] {
				return sent, true
			}
		}
	}
	return sent, false
}

// orderSends puts the templates in send order: a buffered Set is sent
// where slide says, everything else at its call site.
func (f *fnFacts) orderSends() {
	for i := range f.tmpls {
		t := &f.tmpls[i]
		t.sentPos = t.pos
		if t.kind == tmplSet {
			t.sentPos, _ = f.slide(t.pos)
		}
	}
	sort.SliceStable(f.tmpls, func(i, j int) bool { return f.tmpls[i].sentPos < f.tmpls[j].sentPos })
}

// loopsSuppress drops loops whose ranged collection was explicitly
// sorted earlier in the function — provably ordered acquisition.
func (f *fnFacts) loopsSuppress(sorted map[string]bool) {
	kept := f.loops[:0]
	for _, lp := range f.loops {
		if lp.rangedVar != "" && sorted[lp.rangedVar] {
			continue
		}
		kept = append(kept, lp)
	}
	f.loops = kept
}

// lenIsZero matches `len(x) == 0`.
func lenIsZero(cond ast.Expr) (string, bool) {
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok || bin.Op != token.EQL {
		return "", false
	}
	call, ok := bin.X.(*ast.CallExpr)
	if !ok || identName(call.Fun) != "len" || len(call.Args) != 1 {
		return "", false
	}
	lit, ok := bin.Y.(*ast.BasicLit)
	if !ok || lit.Kind != token.INT || lit.Value != "0" {
		return "", false
	}
	return identName(call.Args[0]), true
}

// aliasTable resolves which table the query's target alias selects.
func aliasTable(sql, target string) string {
	st, err := sqlast.Parse(sql)
	if err != nil {
		return ""
	}
	aliases := sqlast.AliasMapOf(st)
	if t, ok := aliases[target]; ok {
		return t
	}
	if tabs := st.Tables(); len(tabs) == 1 {
		return tabs[0]
	}
	return ""
}

func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.CallExpr:
		if m, ok := methodName(x); ok {
			return m + "(...)"
		}
		if n := identName(x.Fun); n != "" {
			return n + "(...)"
		}
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	}
	return "expression"
}

// Shapes materializes each function's extracted statement templates as a
// TxnShape for Analyzer 1 — the per-API templates lock-order
// canonicalization merges — in send order: statements sent at their call
// sites first, then the buffered updates the flush emits at commit.
// scm, when present, supplies primary-key columns for Find and Set
// synthesis; without it Finds are skipped and buffered updates lose
// their key predicate.
func (p *Program) Shapes(scm *schema.Schema) []TxnShape {
	var out []TxnShape
	for _, f := range p.facts {
		sh := TxnShape{API: f.name}
		for _, t := range f.tmpls { // already in send order (sentPos)
			// Templates inlined from a callee summary carry the leaf
			// file, so lock-graph votes cite the real acquisition site
			// (under the caller's API name).
			file := t.file
			if file == "" {
				file = f.file
			}
			switch t.kind {
			case tmplSQL:
				st, err := sqlast.Parse(t.sql)
				if err != nil {
					continue
				}
				sh.Stmts = append(sh.Stmts, StmtShape{Stmt: st, File: file, Line: t.line})
			case tmplFind:
				if sql, ok := pointSelect(scm, t.table); ok {
					sh.Stmts = append(sh.Stmts, StmtShape{Stmt: sqlast.MustParse(sql), File: file, Line: t.line})
				}
			case tmplSet:
				if sql, ok := bufferedUpdate(scm, t.table, t.col); ok {
					sh.Stmts = append(sh.Stmts, StmtShape{Stmt: sqlast.MustParse(sql), File: file, Line: t.line})
				}
			}
		}
		if len(sh.Stmts) > 0 {
			out = append(out, sh)
		}
	}
	return out
}

func pkColumn(scm *schema.Schema, table string) (string, bool) {
	if scm == nil {
		return "", false
	}
	t := scm.Table(table)
	if t == nil {
		return "", false
	}
	pk := t.PrimaryIndex()
	if pk == nil || len(pk.Columns) != 1 {
		return "", false
	}
	return pk.Columns[0], true
}

func pointSelect(scm *schema.Schema, table string) (string, bool) {
	pk, ok := pkColumn(scm, table)
	if !ok {
		return "", false
	}
	return fmt.Sprintf("SELECT * FROM %s t WHERE t.%s = ?", table, pk), true
}

func bufferedUpdate(scm *schema.Schema, table, col string) (string, bool) {
	if pk, ok := pkColumn(scm, table); ok {
		if pk == col {
			return "", false // key rewrite, not the buffered-counter shape
		}
		return fmt.Sprintf("UPDATE %s SET %s = ? WHERE %s = ?", table, col, pk), true
	}
	return fmt.Sprintf("UPDATE %s SET %s = ?", table, col), true
}
