package staticlint

import (
	"container/heap"
	"fmt"
	"slices"
	"sort"
	"strings"

	"weseer/internal/schema"
	"weseer/internal/trace"
)

// Cross-API lock-order canonicalization. The paper's highest-leverage
// fixes (f9–f11) are reorderings: pick one global table-acquisition
// order and make every transaction follow it, killing whole families of
// lock-order-inversion deadlocks at once. This file derives that order
// from the merged lock-order graph (lockgraph.go):
//
//   - Where the graph is acyclic, every template already agrees on a
//     partial order and the canonical order is its deterministic
//     topological linearization.
//   - Where it is not, a small feedback-edge set is computed — a
//     weighted Eades–Lin–Smyth greedy sequence whose back edges are
//     filtered to edges genuinely on a cycle, then reduced to an
//     irredundant set biased toward cutting light (few-template) edges.
//     The feedback edges *are* the ranked fix suggestions: each names
//     the violating acquisition direction, the templates and source
//     sites that vote for it, and the majority that supports the
//     canonical direction.
//
// Everything here is deterministic: node indexes are sorted-key order,
// ties break on node keys, and votes are deduplicated and sorted, so
// the output is byte-identical across runs and independent of map
// iteration order.

// Suggestion is one ranked reorder suggestion: a feedback edge of the
// lock-order graph. Templates that acquire From before To contradict
// the canonical order (which puts To first); reordering their
// acquisition sites removes every inversion family this edge feeds.
type Suggestion struct {
	Rank int    `json:"rank"`
	From string `json:"from"` // acquired first by the violators
	To   string `json:"to"`   // the canonical order puts this node first

	// Violators counts templates acquiring From before To; Supporters
	// counts templates acquiring To before From (the majority evidence
	// the ranking follows).
	Violators  int `json:"violators"`
	Supporters int `json:"supporters"`

	// Sites are the violating acquisition sites to reorder; Evidence
	// the sites supporting the canonical direction.
	Sites    []Vote `json:"sites"`
	Evidence []Vote `json:"evidence,omitempty"`
}

// CanonicalOrder is the result of lock-order canonicalization: the
// global acquisition order plus the ranked reorder suggestions where
// templates disagree.
type CanonicalOrder struct {
	// Order lists every lock-order node key in canonical acquisition
	// order — a topological order of the lock-order graph minus the
	// feedback edges behind Suggestions.
	Order []string `json:"order"`
	// Templates and Edges size the graph the order was derived from.
	Templates int `json:"templates"`
	Edges     int `json:"edges"`
	// Suggestions are the feedback edges, ranked strongest majority
	// first. Empty when every template already agrees (acyclic graph).
	Suggestions []Suggestion `json:"suggestions,omitempty"`
}

// CanonicalizeShapes is the one-call form: build the lock-order graph
// from the shapes and canonicalize it. scm may be nil (no row-level
// node narrowing).
func CanonicalizeShapes(shapes []TxnShape, scm *schema.Schema) *CanonicalOrder {
	return buildLockOrderGraph(shapes, scm).canonicalize()
}

// CanonicalizeTraces canonicalizes a collected workload: every
// transaction instance of every trace is one voting template. `-fixplan`
// and the fixgain experiment compute it beside the analysis result,
// which never carries it (a few hundred milliseconds on a thousand
// traces). Serial and input-order driven, so the result is byte-identical
// however the analysis was run.
func CanonicalizeTraces(traces []*trace.Trace, scm *schema.Schema) *CanonicalOrder {
	var shapes []TxnShape
	for _, tr := range traces {
		for _, txn := range tr.Txns {
			shapes = append(shapes, shapeFromTxn(tr.API, txn))
		}
	}
	return CanonicalizeShapes(shapes, scm)
}

// Rank returns the rank of the best suggestion with a violating site in
// one of apis — the reorder that a fix rewriting those templates carries
// out — or 0 when no suggestion names them or co is nil.
func (co *CanonicalOrder) Rank(apis []string) int {
	if co == nil {
		return 0
	}
	for _, s := range co.Suggestions { // best first
		for _, v := range s.Sites {
			if slices.Contains(apis, v.API) {
				return s.Rank
			}
		}
	}
	return 0
}

// canonicalize computes the canonical global lock order and the ranked
// feedback-edge suggestions.
func (g *lockOrderGraph) canonicalize() *CanonicalOrder {
	fb, cut := g.feedbackEdges()
	order, _ := g.kahn(cut) // complete: fb breaks every cycle
	co := &CanonicalOrder{Order: make([]string, 0, len(order)), Templates: g.templates}
	for _, u := range order {
		co.Order = append(co.Order, g.nodes[u].Key())
	}
	co.Edges = len(g.edges)
	for _, id := range fb {
		e := g.edges[id]
		u, v := e.u, e.v
		co.Suggestions = append(co.Suggestions, Suggestion{
			From:       g.nodes[u].Key(),
			To:         g.nodes[v].Key(),
			Violators:  e.w,
			Supporters: g.weight(v, u),
			Sites:      g.edgeVotes(u, v),
			Evidence:   g.edgeVotes(v, u),
		})
	}
	sort.SliceStable(co.Suggestions, func(i, j int) bool {
		a, b := co.Suggestions[i], co.Suggestions[j]
		if a.Supporters != b.Supporters {
			return a.Supporters > b.Supporters // strongest majority first
		}
		if a.Violators != b.Violators {
			return a.Violators < b.Violators // cheapest reorder next
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	for i := range co.Suggestions {
		co.Suggestions[i].Rank = i + 1
	}
	return co
}

// feedbackEdges returns a small edge set whose removal makes the graph
// acyclic, as ascending edge ids and as a set by edge id. Empty when the
// graph already is.
func (g *lockOrderGraph) feedbackEdges() ([]int, []bool) {
	pos := g.elsPositions()

	// Back edges of the ELS sequence break every cycle; keep only those
	// genuinely on a cycle (the target reaches the source), which still
	// breaks every cycle — all of a cycle's edges are on that cycle, so
	// each cycle retains at least one of its back edges in the set.
	var fb []int
	inFB := make([]bool, len(g.edges))
	for id, e := range g.edges {
		if pos[e.u] > pos[e.v] && g.reaches(e.v, e.u) {
			fb = append(fb, id)
			inFB[id] = true
		}
	}

	// Irredundancy pass: re-admit edges the set does not actually need,
	// heaviest (best-supported) first, so the cuts that remain fall on
	// the lightest-supported directions.
	cands := slices.Clone(fb)
	sort.SliceStable(cands, func(i, j int) bool { return g.edges[cands[i]].w > g.edges[cands[j]].w })
	for _, id := range cands {
		inFB[id] = false
		if _, acyclic := g.kahn(inFB); !acyclic {
			inFB[id] = true
		}
	}
	fb = fb[:0]
	for id, cut := range inFB {
		if cut {
			fb = append(fb, id)
		}
	}
	return fb, inFB
}

// elsPositions runs the weighted Eades–Lin–Smyth greedy: repeatedly
// peel sinks to the back and sources to the front, otherwise move the
// node with the largest out-weight minus in-weight to the front, so
// heavy agreement points forward and back edges are few and light. On
// an acyclic graph the result is a topological order (no back edges).
// Ties break on the (sorted-key) node index, making the sequence — and
// everything derived from it — deterministic.
func (g *lockOrderGraph) elsPositions() []int {
	n := len(g.nodes)
	dead := make([]bool, n)
	// outW and inW are each node's weight to and from the live nodes;
	// peel keeps them current.
	outW, inW := make([]int, n), make([]int, n)
	for _, e := range g.edges {
		outW[e.u] += e.w
		inW[e.v] += e.w
	}
	left := n
	peel := func(x int) {
		dead[x] = true
		left--
		for _, id := range g.out[x] {
			inW[g.edges[id].v] -= g.edges[id].w
		}
		for _, id := range g.in[x] {
			outW[g.edges[id].u] -= g.edges[id].w
		}
	}
	var s1, s2 []int // s2 is built back-to-front
	for left > 0 {
		for {
			sink := -1
			for u := 0; u < n; u++ {
				if !dead[u] && outW[u] == 0 {
					sink = u
					break
				}
			}
			if sink < 0 {
				break
			}
			peel(sink)
			s2 = append(s2, sink)
		}
		for {
			src := -1
			for u := 0; u < n; u++ {
				if !dead[u] && inW[u] == 0 {
					src = u
					break
				}
			}
			if src < 0 {
				break
			}
			peel(src)
			s1 = append(s1, src)
		}
		if left == 0 {
			break
		}
		best, bestDelta := -1, 0
		for u := 0; u < n; u++ {
			if dead[u] {
				continue
			}
			d := outW[u] - inW[u]
			if best < 0 || d > bestDelta {
				best, bestDelta = u, d
			}
		}
		peel(best)
		s1 = append(s1, best)
	}
	pos := make([]int, n)
	for i, u := range s1 {
		pos[u] = i
	}
	for i, u := range s2 {
		pos[u] = n - 1 - i
	}
	return pos
}

// kahn linearizes the graph minus the excluded edges (by edge id) by
// Kahn's algorithm, always emitting the smallest-index (smallest-key)
// ready node, so the order is unique and deterministic. It returns the
// nodes it emitted and whether that was all of them — false exactly when
// the remaining edges still close a cycle.
func (g *lockOrderGraph) kahn(excluded []bool) ([]int, bool) {
	n := len(g.nodes)
	indeg := make([]int, n)
	for id, e := range g.edges {
		if !excluded[id] {
			indeg[e.v]++
		}
	}
	var ready intHeap
	for u := range indeg {
		if indeg[u] == 0 {
			ready.IntSlice = append(ready.IntSlice, u) // ascending: already a heap
		}
	}
	order := make([]int, 0, n)
	for ready.Len() > 0 {
		next := heap.Pop(&ready).(int)
		order = append(order, next)
		for _, id := range g.out[next] {
			if v := g.edges[id].v; !excluded[id] {
				if indeg[v]--; indeg[v] == 0 {
					heap.Push(&ready, v)
				}
			}
		}
	}
	return order, len(order) == n
}

// intHeap is a min-heap of node indexes (container/heap).
type intHeap struct{ sort.IntSlice }

func (h *intHeap) Push(x any) { h.IntSlice = append(h.IntSlice, x.(int)) }
func (h *intHeap) Pop() any {
	x := h.IntSlice[len(h.IntSlice)-1]
	h.IntSlice = h.IntSlice[:len(h.IntSlice)-1]
	return x
}

// Render formats the canonical order and its ranked suggestions as the
// `weseer vet -canonical-order` text report.
func (co *CanonicalOrder) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "canonical lock-acquisition order (%d nodes from %d templates, %d edges, %d conflicting):\n",
		len(co.Order), co.Templates, co.Edges, len(co.Suggestions))
	for i, key := range co.Order {
		fmt.Fprintf(&b, "  %2d. %s\n", i+1, key)
	}
	if len(co.Suggestions) == 0 {
		b.WriteString("no conflicts: every template agrees with the canonical order\n")
		return b.String()
	}
	b.WriteString("reorder suggestions (feedback edges, strongest majority first):\n")
	for i := range co.Suggestions {
		co.Suggestions[i].render(&b)
	}
	return b.String()
}

// RenderSuggestions formats only the ranked suggestions, as `-fixplan`
// prints them beside the analysis report: no node list, and "" when co is
// nil or has no conflicts.
func (co *CanonicalOrder) RenderSuggestions() string {
	if co == nil || len(co.Suggestions) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "ranked lock-order fixes (canonical order over %d templates, %d conflicting edge(s)):\n",
		co.Templates, len(co.Suggestions))
	for i := range co.Suggestions {
		co.Suggestions[i].render(&b)
	}
	return b.String()
}

// render writes one suggestion as both reports print it: the reorder it
// asks for, the sites to reorder and the sites that already agree.
func (s *Suggestion) render(b *strings.Builder) {
	fmt.Fprintf(b, "  #%d acquire %s before %s: %d template(s) against %d\n",
		s.Rank, s.To, s.From, s.Violators, s.Supporters)
	for _, v := range s.Sites {
		fmt.Fprintf(b, "      reorder %s at %s\n", v.API, siteOf(v))
	}
	for _, v := range s.Evidence {
		fmt.Fprintf(b, "      keeps   %s at %s\n", v.API, siteOf(v))
	}
}

func siteOf(v Vote) string {
	if v.File == "" {
		return "(template)"
	}
	return fmt.Sprintf("%s:%d", v.File, v.Line)
}
