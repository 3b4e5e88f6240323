package staticlint

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"weseer/internal/sqlast"
)

// Property test for lock-order canonicalization: on seeded random
// workloads the canonical order must be a valid topological order of
// the lock-order graph minus the reported feedback edges, every
// feedback edge must lie on at least one cycle, and the whole output
// must be byte-deterministic — identical across rebuilds and
// independent of the order shapes arrive in (and hence of map
// iteration order, which varies per build).

// randomShapes derives a random workload from the seed: 1–10 templates,
// each 2–6 statements over 2–8 tables, each statement a read or a
// write. Statements are bare templates (no rigid keys, nil schema), so
// nodes are table-level.
func randomShapes(seed int64) []TxnShape {
	rng := rand.New(rand.NewSource(seed))
	nTables := 2 + rng.Intn(7)
	type stmtKey struct {
		table int
		write bool
	}
	stmts := map[stmtKey]sqlast.Stmt{}
	stmtOf := func(table int, write bool) sqlast.Stmt {
		k := stmtKey{table, write}
		if st, ok := stmts[k]; ok {
			return st
		}
		var sql string
		if write {
			sql = fmt.Sprintf("UPDATE T%d SET V = ? WHERE ID = ?", table)
		} else {
			sql = fmt.Sprintf("SELECT * FROM T%d x WHERE x.ID = ?", table)
		}
		st := sqlast.MustParse(sql)
		stmts[k] = st
		return st
	}
	nShapes := 1 + rng.Intn(10)
	shapes := make([]TxnShape, 0, nShapes)
	for i := 0; i < nShapes; i++ {
		sh := TxnShape{API: fmt.Sprintf("api%d", i)}
		for s, n := 0, 2+rng.Intn(5); s < n; s++ {
			sh.Stmts = append(sh.Stmts, StmtShape{
				Stmt: stmtOf(rng.Intn(nTables), rng.Intn(2) == 0),
				File: fmt.Sprintf("api%d.go", i), Line: s + 1,
			})
		}
		shapes = append(shapes, sh)
	}
	return shapes
}

// checkCanonicalProperties asserts the canonicalization invariants on
// one workload.
func checkCanonicalProperties(t *testing.T, seed int64, shapes []TxnShape) {
	t.Helper()
	g := buildLockOrderGraph(shapes, nil)
	co := g.canonicalize()

	// The order lists every node exactly once.
	keys := g.nodeKeys()
	if len(co.Order) != len(keys) {
		t.Fatalf("seed %d: order has %d entries, graph %d nodes", seed, len(co.Order), len(keys))
	}
	pos := map[string]int{}
	for i, k := range co.Order {
		if _, dup := pos[k]; dup {
			t.Fatalf("seed %d: node %s appears twice in the order", seed, k)
		}
		pos[k] = i
	}
	for _, k := range keys {
		if _, ok := pos[k]; !ok {
			t.Fatalf("seed %d: node %s missing from the order", seed, k)
		}
	}

	// Feedback edges must be real graph edges with consistent weights,
	// and the order a valid topological order of the remaining edges.
	edges := g.edgeKeys()
	if co.Edges != len(edges) {
		t.Fatalf("seed %d: co.Edges = %d, graph has %d", seed, co.Edges, len(edges))
	}
	feedback := map[[2]string]bool{}
	for _, s := range co.Suggestions {
		if w := g.weight(s.From, s.To); w == 0 || w != s.Violators {
			t.Fatalf("seed %d: suggestion %s->%s: violators %d, edge weight %d",
				seed, s.From, s.To, s.Violators, w)
		}
		if w := g.weight(s.To, s.From); w != s.Supporters {
			t.Fatalf("seed %d: suggestion %s->%s: supporters %d, reverse weight %d",
				seed, s.From, s.To, s.Supporters, w)
		}
		feedback[[2]string{s.From, s.To}] = true
	}
	adj := map[string][]string{}
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		if feedback[e] {
			continue
		}
		if pos[e[0]] >= pos[e[1]] {
			t.Fatalf("seed %d: order violates non-feedback edge %s -> %s", seed, e[0], e[1])
		}
	}

	// Every feedback edge lies on a cycle: its target must reach its
	// source through the full edge set.
	reach := func(from, to string) bool {
		seen := map[string]bool{from: true}
		stack := []string{from}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if u == to {
				return true
			}
			for _, v := range adj[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		return false
	}
	for _, s := range co.Suggestions {
		if !reach(s.To, s.From) {
			t.Fatalf("seed %d: feedback edge %s -> %s is not on any cycle", seed, s.From, s.To)
		}
		if s.Rank == 0 || len(s.Sites) == 0 {
			t.Fatalf("seed %d: suggestion %s -> %s lacks rank or sites", seed, s.From, s.To)
		}
	}

	// Rank is the best rank among the suggestions with a site in one of
	// the APIs: 0 on a nil order and for APIs no suggestion names.
	var none *CanonicalOrder
	if r := none.Rank([]string{shapes[0].API}); r != 0 {
		t.Fatalf("seed %d: nil order ranks %d", seed, r)
	}
	if r := co.Rank([]string{"NoSuchAPI"}); r != 0 {
		t.Fatalf("seed %d: an API no suggestion names ranks %d", seed, r)
	}
	for _, sh := range shapes {
		want := 0
		for _, s := range co.Suggestions {
			for _, v := range s.Sites {
				if v.API == sh.API && (want == 0 || s.Rank < want) {
					want = s.Rank
				}
			}
		}
		if got := co.Rank([]string{"NoSuchAPI", sh.API}); got != want {
			t.Fatalf("seed %d: Rank(%s) = %d, want %d", seed, sh.API, got, want)
		}
	}

	// Byte determinism: rebuilding — from the same shapes and from
	// shuffled shapes — must reproduce the text and JSON output exactly.
	// Map iteration order differs per rebuild, so this also catches
	// map-ranged emission.
	text, jsonBytes := co.Render(), mustJSON(t, co)
	shuffled := append([]TxnShape(nil), shapes...)
	rng := rand.New(rand.NewSource(seed + 1))
	for trial := 0; trial < 3; trial++ {
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		again := buildLockOrderGraph(shuffled, nil).canonicalize()
		if got := again.Render(); got != text {
			t.Fatalf("seed %d: render not deterministic under input shuffle:\n got %q\nwant %q", seed, got, text)
		}
		if got := mustJSON(t, again); string(got) != string(jsonBytes) {
			t.Fatalf("seed %d: JSON not deterministic under input shuffle", seed)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestCanonicalOrderProperties drives the invariant checker over 500
// seeded random workloads (more with -count or outside -short via the
// fuzz target below).
func TestCanonicalOrderProperties(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		checkCanonicalProperties(t, seed, randomShapes(seed))
	}
}

// FuzzCanonicalOrder exposes the same invariants to the fuzzer: any
// seed the engine invents must uphold them.
func FuzzCanonicalOrder(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkCanonicalProperties(t, seed, randomShapes(seed))
	})
}

// nodeKeys returns every node key in canonical (sorted) order.
func (g *lockOrderGraph) nodeKeys() []string {
	out := make([]string, len(g.nodes))
	for i, n := range g.nodes {
		out[i] = n.Key()
	}
	return out
}

// edgeKeys returns every edge as a [from, to] key pair, in canonical
// order.
func (g *lockOrderGraph) edgeKeys() [][2]string {
	var out [][2]string
	for u := range g.nodes {
		for v := range g.nodes {
			if g.w[u][v] > 0 {
				out = append(out, [2]string{g.nodes[u].Key(), g.nodes[v].Key()})
			}
		}
	}
	return out
}

// weight returns how many templates acquire from before to (0 when the
// edge is absent or either node unknown).
func (g *lockOrderGraph) weight(from, to string) int {
	u, okU := g.keyIndex(from)
	v, okV := g.keyIndex(to)
	if !okU || !okV {
		return 0
	}
	return g.w[u][v]
}

func (g *lockOrderGraph) keyIndex(key string) (int, bool) {
	for i, n := range g.nodes {
		if n.Key() == key {
			return i, true
		}
	}
	return 0, false
}
