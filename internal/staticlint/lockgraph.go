package staticlint

import (
	"sort"
	"strings"

	"weseer/internal/schema"
	"weseer/internal/smt"
	"weseer/internal/sqlast"
)

// The cross-API lock-order graph: every transaction template casts one
// vote per ordered pair of lock resources it acquires, and the merged
// directed graph is what canonical.go linearizes. Nodes are resources —
// a table, narrowed to a single row when the statement pins the table's
// full primary key to a rigid value — not (resource, mode) pairs:
// acquisition order is a property of the resource, and splitting reads
// from writes would hide exactly the conflicts the paper's f9–f11 fixes
// reorder (a template that reads rows ascending and then write-upgrades
// them descending disagrees with itself only if both acquisitions land
// on the same node pair). An edge u -> v weighted w says "w templates
// acquire (or write-upgrade) u before v".

// OrderNode is one lock-order graph node: a whole table, or a single
// row of it when the statement pins the table's full primary key to a
// rigid value. The row split is what lets same-table acquisition-order
// disagreements — the paper's f9–f11 "sort the rows before locking"
// class — surface as feedback edges instead of collapsing into one
// table node.
type OrderNode struct {
	Table string `json:"table"`
	Row   string `json:"row,omitempty"` // rigid point key, "" = whole table
}

// Key renders the node canonically, e.g. "Product" or "Product[i:3]".
// Node keys are the order the graph and all reports speak in.
func (n OrderNode) Key() string {
	if n.Row != "" {
		return n.Table + "[" + n.Row + "]"
	}
	return n.Table
}

// Vote is one template's support for one edge direction: the API
// (function or trace) and, when known, the source site of the *later*
// acquisition — the statement a reorder fix would move.
type Vote struct {
	API  string `json:"api"`
	File string `json:"file,omitempty"`
	Line int    `json:"line,omitempty"`
}

func voteLess(a, b Vote) bool {
	if a.API != b.API {
		return a.API < b.API
	}
	if a.File != b.File {
		return a.File < b.File
	}
	return a.Line < b.Line
}

// lockOrderGraph is the merged acquisition-order graph over every
// template's lock-order constraints. Node indexes are assigned in
// sorted-key order, so every index-order iteration is deterministic
// regardless of input order or map iteration.
type lockOrderGraph struct {
	nodes     []OrderNode
	idx       map[OrderNode]int
	w         [][]int // w[u][v]: templates acquiring u before v
	votes     map[[2]int][]Vote
	templates int // shapes that contributed at least one node
}

// acquisition is one node's first acquisition within a template.
type acquisition struct {
	node OrderNode
	file string
	line int
}

// acquisitionSeq lists the template's lock-acquisition events in order.
// Statement templates acquire locks in statement order; within one
// statement the write table takes the exclusive lock and every other
// referenced table a shared one. A resource enters the sequence at its
// first acquisition and again when a held shared lock is upgraded to
// exclusive — the upgrade acquires a new (stronger) lock at that point,
// so a template that reads rows ascending and later write-upgrades them
// descending genuinely orders the resources both ways. With a schema,
// statements that rigidly pin a table's full primary key narrow to a
// row-level node, so same-table row-order disagreements stay visible.
func acquisitionSeq(sh TxnShape, scm *schema.Schema) []acquisition {
	const (
		shared    = 1
		exclusive = 2
	)
	held := map[OrderNode]int{}
	var out []acquisition
	for _, st := range sh.Stmts {
		wt := st.Stmt.WriteTable()
		for _, t := range st.Stmt.Tables() {
			n := OrderNode{Table: t}
			if row, ok := rowKeyOf(st, t, scm); ok {
				n.Row = row
			}
			mode := shared
			if t == wt {
				mode = exclusive
			}
			if held[n] >= mode {
				continue
			}
			held[n] = mode
			out = append(out, acquisition{node: n, file: st.File, line: st.Line})
		}
	}
	return out
}

// rowKeyOf returns the rigid point key a statement pins the table's
// primary key to, and false when the accessed row is not statically
// fixed. Aliases are tried in sorted order, so the result never depends
// on map iteration.
func rowKeyOf(sh StmtShape, table string, scm *schema.Schema) (string, bool) {
	if scm == nil {
		return "", false
	}
	t := scm.Table(table)
	if t == nil {
		return "", false
	}
	pk := t.PrimaryIndex()
	if pk == nil || !pk.Unique {
		return "", false
	}
	for _, a := range append(sqlast.AliasesOf(sh.Stmt, table), table) {
		if k, ok := pointKeyOn(sh, a, pk); ok {
			return k, true
		}
	}
	return "", false
}

// pointKeyOn returns the canonical key a statement pins on every column
// of the unique index ix (for the lock acquired under alias), and false
// when any column is unpinned or not statically fixed. A key built only
// from rigid values names one row whatever the inputs, which is what
// makes the row split of an OrderNode sound.
func pointKeyOn(sh StmtShape, alias string, ix *schema.Index) (string, bool) {
	preds := sqlast.QueryCondOf(sh.Stmt).Preds
	keys := make([]string, len(ix.Columns))
	for i, col := range ix.Columns {
		k, ok := pinnedValue(preds, alias, col, sh)
		if !ok {
			return "", false
		}
		keys[i] = k
	}
	return strings.Join(keys, "|"), true
}

// pinnedValue finds a top-level equality conjunct binding alias.col to a
// rigid value. Conjuncts are sound pins: every row the statement touches
// satisfies them.
func pinnedValue(preds []sqlast.Pred, alias, col string, sh StmtShape) (string, bool) {
	for _, p := range preds {
		if p.IsNull || p.Op != smt.EQ {
			continue
		}
		colSide, valSide := p.L, p.R
		if !isColRef(colSide, alias, col) {
			colSide, valSide = p.R, p.L
		}
		if !isColRef(colSide, alias, col) {
			continue
		}
		if k, ok := rigidOperand(valSide, sh); ok {
			return k, true
		}
	}
	return "", false
}

func isColRef(o sqlast.Operand, alias, col string) bool {
	return o.Kind == sqlast.Col && o.Column == col && (o.Table == alias || o.Table == "")
}

// buildLockOrderGraph merges every shape's per-template lock-order
// constraints into one directed graph: for each ordered node pair (u
// acquired strictly before v) the template adds one vote to the edge
// u -> v, located at v's acquisition site (the statement a fix would
// hoist). A template votes each ordered pair at most once, but upgrade
// events mean it may vote both directions of the same pair — that
// self-disagreement is the f10/f11 signature, not a bug. scm may be
// nil (no row-level node narrowing).
func buildLockOrderGraph(shapes []TxnShape, scm *schema.Schema) *lockOrderGraph {
	nodeSet := map[OrderNode]bool{}
	seqs := make([][]acquisition, len(shapes))
	for i, sh := range shapes {
		seqs[i] = acquisitionSeq(sh, scm)
		for _, a := range seqs[i] {
			nodeSet[a.node] = true
		}
	}
	g := &lockOrderGraph{idx: map[OrderNode]int{}, votes: map[[2]int][]Vote{}}
	for n := range nodeSet {
		g.nodes = append(g.nodes, n)
	}
	sort.Slice(g.nodes, func(i, j int) bool { return g.nodes[i].Key() < g.nodes[j].Key() })
	for i, n := range g.nodes {
		g.idx[n] = i
	}
	g.w = make([][]int, len(g.nodes))
	for i := range g.w {
		g.w[i] = make([]int, len(g.nodes))
	}
	for si, seq := range seqs {
		if len(seq) > 0 {
			g.templates++
		}
		voted := map[[2]int]bool{}
		for i := 0; i < len(seq); i++ {
			for j := i + 1; j < len(seq); j++ {
				u, v := g.idx[seq[i].node], g.idx[seq[j].node]
				if u == v || voted[[2]int{u, v}] {
					continue
				}
				voted[[2]int{u, v}] = true
				g.w[u][v]++
				g.votes[[2]int{u, v}] = append(g.votes[[2]int{u, v}], Vote{
					API: shapes[si].API, File: seq[j].file, Line: seq[j].line,
				})
			}
		}
	}
	return g
}

// edgeVotes returns the deduplicated, sorted votes of one edge.
func (g *lockOrderGraph) edgeVotes(u, v int) []Vote {
	raw := g.votes[[2]int{u, v}]
	seen := map[Vote]bool{}
	var out []Vote
	for _, vt := range raw {
		if seen[vt] {
			continue
		}
		seen[vt] = true
		out = append(out, vt)
	}
	sort.Slice(out, func(i, j int) bool { return voteLess(out[i], out[j]) })
	return out
}

// reaches reports whether to is reachable from from along graph edges.
// Callers only ask about distinct nodes (no template acquires a node
// before itself), so the zero-length path never arises.
func (g *lockOrderGraph) reaches(from, to int) bool {
	seen := make([]bool, len(g.nodes))
	stack := []int{from}
	seen[from] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if u == to {
			return true
		}
		for v := range g.nodes {
			if g.w[u][v] > 0 && !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return false
}
