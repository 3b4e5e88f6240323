package core

// Indexed candidate enumeration (phases 1–2): one serial pass over
// run-wide integer ids.
//
// flatten numbers the recorded statements and transactions once, reading
// the traces in place: a statement's facts, at its ordinal, are ids of its
// key (stmtKey), tables and write table; a transaction's, its two roles and
// its phase-1 signature. Phase 1 inverts the signatures into per-table
// posting lists of the instances that access, and that write, each table.
// A pair survives iff each side writes a table the other accesses, so the
// exact survivor set for one instance L is
//
//	(⋃_{t ∈ written(L)} accessors[t]) ∩ (⋃_{t ∈ accessed(L)} writers[t])
//
// restricted to instances from traces at or after L's own: posting-list
// suffixes. Per left trace the survivors are sorted into the naive loop's
// (trace_i, trace_j, txn1, txn2) order (enumerateNaive, enum_test.go, is
// the oracle), and phase 2 enumerates each pair's cycles into chains found
// by an identity of ids (chainID); its string (dedupKey) is rendered only
// for a report. The filters are cheap by design (Sec. V-B), so there is no
// worker pool here; phase 3 has the workers.

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"weseer/internal/lockmodel"
	"weseer/internal/trace"
)

// enumInst is the recorded transaction at an ordinal, in (trace,
// transaction) order: the naive loop's order on either side of a pair.
// Left of a pair it plays role[0] ("A1."), right role[1] ("A2.").
type enumInst struct {
	trace int // index into the traces slice
	role  [2]instance
}

// txnSig is a transaction's phase-1 signature: the ids of the tables it
// accesses and of those it writes, each once.
type txnSig struct {
	acc, wr []int32
}

// tmplFacts is what one parsed template's statements share: table ids, the
// write table's (-1: none), parameter sorts lockmodel.CheckStmt accepted.
type tmplFacts struct {
	tables []int32
	write  int32
	passed []string
}

// stmtKeyOf is what stmtKey renders, as a map key.
type stmtKeyOf struct {
	sql, file string
	line      int
}

// flatten numbers the traces' statements and transactions; start[i] is
// the first transaction ordinal of trace i (len(start) == len(traces)+1).
// A statement the schema cannot describe is an error naming it.
func (r *run) flatten(traces []*trace.Trace) error {
	r.start = make([]int, len(traces)+1)
	stmts, txns := 0, 0
	for _, tr := range traces {
		for _, txn := range tr.Txns {
			stmts, txns = stmts+len(txn.Stmts), txns+1
		}
	}
	r.facts, r.insts, r.sigs = make([]stmtFacts, 0, stmts), make([]enumInst, 0, txns), make([]txnSig, 0, txns)
	for i, tr := range traces {
		r.start[i] = len(r.insts)
		api := r.intern(tr.API)
		for _, txn := range tr.Txns {
			first := int32(len(r.facts))
			sig, err := r.addFacts(txn)
			if err != nil {
				return fmt.Errorf("core: trace %d (%s), %w", i, tr.API, err)
			}
			r.insts = append(r.insts, enumInst{trace: i, role: [2]instance{
				{API: tr.API, Prefix: "A1.", Txn: txn, Trace: tr, api: api, first: first},
				{API: tr.API, Prefix: "A2.", Txn: txn, Trace: tr, api: api, first: first},
			}})
			r.sigs = append(r.sigs, sig)
		}
	}
	r.start[len(traces)] = len(r.insts)
	return nil
}

// addFacts appends the facts of txn's statements to r.facts and returns
// the transaction's signature. It checks each statement against the schema
// the lock model reads it with (lockmodel.CheckStmt): the verdict depends
// on the template and its parameters' sorts alone, so once per such pair.
func (r *run) addFacts(txn *trace.Txn) (txnSig, error) {
	first := len(r.facts)
	for _, st := range txn.Stmts {
		t := r.parsed[st.Parsed]
		if t == nil {
			t = &tmplFacts{write: -1}
			base := len(r.ids)
			for _, tab := range st.Parsed.Tables() {
				r.ids = append(r.ids, r.intern(tab))
			}
			if t.tables = r.carve(base); st.Parsed.WriteTable() != "" {
				t.write = r.intern(st.Parsed.WriteTable())
			}
			r.parsed[st.Parsed] = t
		}
		sorts := r.sorts[:0]
		for _, p := range st.Params {
			switch {
			case p.Sym != nil:
				sorts = append(sorts, 'a'+byte(p.Sym.Sort()))
			case p.Concrete.Null:
				sorts = append(sorts, '-')
			default:
				sorts = append(sorts, 'A'+byte(p.Concrete.Kind))
			}
		}
		if r.sorts = sorts; !slices.ContainsFunc(t.passed, func(s string) bool { return s == string(sorts) }) {
			if err := lockmodel.CheckStmt(st, r.scm); err != nil {
				return txnSig{}, fmt.Errorf("statement %d %q: %w", st.Seq, st.SQL, err)
			}
			t.passed = append(t.passed, string(sorts))
		}
		top := st.Trigger.Top()
		k := stmtKeyOf{st.SQL, top.File, top.Line}
		key, ok := r.keys[k]
		if !ok {
			key = int32(len(r.keys))
			r.keys[k] = key
		}
		r.facts = append(r.facts, stmtFacts{key: key, tmpl: t, skelID: -1})
	}
	base := len(r.ids)
	for _, f := range r.facts[first:] {
		for _, tab := range f.tmpl.tables {
			r.addOnce(base, tab)
		}
	}
	acc := r.carve(base)
	for _, f := range r.facts[first:] {
		if f.tmpl.write >= 0 {
			r.addOnce(base, f.tmpl.write)
		}
	}
	return txnSig{acc: acc, wr: r.carve(base)}, nil
}

// addOnce appends id to the list begun at base in r.ids, the scratch
// flatten's and settle's id lists are built in, unless it is there.
func (r *run) addOnce(base int, id int32) {
	if !slices.Contains(r.ids[base:], id) {
		r.ids = append(r.ids, id)
	}
}

// carve moves the list begun at base in r.ids to r.lists and returns it.
func (r *run) carve(base int) []int32 {
	l := r.lists.carve(len(r.ids) - base)
	copy(l, r.ids[base:])
	r.ids = r.ids[:base]
	return l
}

// intern returns the run's id of a table or API name.
func (r *run) intern(s string) int32 {
	id, ok := r.nameIDs[s]
	if !ok {
		id = int32(len(r.names))
		r.nameIDs[s] = id
		r.names = append(r.names, s)
	}
	return id
}

// conflictIndex holds the per-table posting lists over the instances, by
// table id: accessors, then writers, back to back in post, list k at
// post[at[k]:at[k+1]]. Lists are built in ordinal order, so they are
// sorted ascending and suffix scans (ordinal >= some start) are a binary
// search plus a linear walk. The epoch trick makes clearing the marks
// O(1): a mark is live only when its slot equals the current epoch, so
// bumping the epoch invalidates every mark at once.
type conflictIndex struct {
	ids          int
	at, post     []int32
	epoch        uint32
	markA, markB []uint32
	cand         []int
}

func buildConflictIndex(sigs []txnSig, ids int) *conflictIndex {
	ix := &conflictIndex{ids: ids, at: make([]int32, 2*ids+1),
		markA: make([]uint32, len(sigs)), markB: make([]uint32, len(sigs))}
	for _, sig := range sigs { // each list's length, at its end
		for _, t := range sig.acc {
			ix.at[t+1]++
		}
		for _, t := range sig.wr {
			ix.at[ids+int(t)+1]++
		}
	}
	for k := range 2 * ids {
		ix.at[k+1] += ix.at[k]
	}
	ix.post = make([]int32, ix.at[2*ids])
	next := slices.Clone(ix.at[:2*ids])
	for ord, sig := range sigs {
		for _, t := range sig.acc {
			ix.post[next[t]], next[t] = int32(ord), next[t]+1
		}
		for _, t := range sig.wr {
			k := ids + int(t)
			ix.post[next[k]], next[k] = int32(ord), next[k]+1
		}
	}
	return ix
}

// list returns the ordinals of list k from ordinal start on.
func (ix *conflictIndex) list(k, start int) []int32 {
	l := ix.post[ix.at[k]:ix.at[k+1]]
	i, _ := slices.BinarySearch(l, int32(start))
	return l[i:]
}

// candidates computes the exact phase-1 survivor set for one instance
// with signature sig, restricted to right-hand ordinals >= startOrd,
// in ascending ordinal order. probes counts the posting-list entries
// walked — the work the index performs in place of the naive loop's
// pairwise signature probes.
func (ix *conflictIndex) candidates(sig txnSig, startOrd int) (cands []int, probes int) {
	ix.epoch++
	if ix.epoch == 0 { // uint32 wraparound: stale slots could alias, reset
		clear(ix.markA)
		clear(ix.markB)
		ix.epoch = 1
	}
	// Direction A: instances that access a table L writes.
	for _, t := range sig.wr {
		for _, r := range ix.list(int(t), startOrd) {
			probes++
			ix.markA[r] = ix.epoch
		}
	}
	// Direction B: instances that write a table L accesses. A pair is a
	// survivor exactly when both directions hold.
	ix.cand = ix.cand[:0]
	for _, t := range sig.acc {
		for _, r := range ix.list(ix.ids+int(t), startOrd) {
			probes++
			if ix.markB[r] != ix.epoch {
				ix.markB[r] = ix.epoch
				if ix.markA[r] == ix.epoch {
					ix.cand = append(ix.cand, int(r))
				}
			}
		}
	}
	// Collection order above follows the tables; the pass wants naive
	// (ordinal) order.
	sort.Ints(ix.cand)
	return ix.cand, probes
}

// enumerateIndexed is phases 1–2 over flatten's numbering. It produces the same chains, in the same order,
// with the same funnel counters as enumerateNaive (plus Stats.IndexProbes,
// which the naive loop leaves zero). Cancellation is checked per survivor:
// what is returned with ctx's error is a prefix of the full enumeration,
// with the chains and counters the naive loop holds on reaching the same
// pair — except IndexProbes, which is booked per left trace and so covers
// the whole of the trace the pass stopped in.
func (r *run) enumerateIndexed(ctx context.Context, traces []*trace.Trace) ([]*chain, Stats, error) {
	var st Stats
	insts, start := r.insts, r.start
	ix := buildConflictIndex(r.sigs, len(r.names))

	// The chains in first-occurrence order, found by identity; byID is
	// sized for a chain per instance (gen:7 at 1,056 templates: 2,103
	// instances, 2,842 chains), which spares it most of its growth.
	var chains []*chain
	var slab slab[chain]
	byID := make(map[chainID]*chain, len(insts))
	add := func(cyc Cycle, id chainID) {
		ch, ok := byID[id]
		if !ok {
			ch = &slab.carve(1)[0]
			ch.cycles = ch.first[:0]
			byID[id] = ch
			chains = append(chains, ch)
		}
		ch.cycles = append(ch.cycles, cyc)
	}

	type pair struct{ left, right int }
	var pairs []pair
	for i := range traces {
		lo, hi := start[i], start[i+1]
		// Trace i's phase-1 survivors in (txn1, txn2) order ...
		pairs = pairs[:0]
		for li := lo; li < hi; li++ {
			cands, probes := ix.candidates(r.sigs[li], lo)
			st.IndexProbes += probes
			for _, ro := range cands {
				pairs = append(pairs, pair{li, ro})
			}
		}
		// ... and, ordinals grouping by trace, in (trace_j, txn1, txn2) order.
		slices.SortStableFunc(pairs, func(x, y pair) int {
			return insts[x.right].trace - insts[y.right].trace
		})
		for _, p := range pairs {
			if err := ctx.Err(); err != nil {
				// The universe pairs of trace i the naive loop visits before p.
				rt := insts[p.right].trace
				jlo, jhi := start[rt], start[rt+1]
				st.Pairs += (hi-lo)*(jlo-lo) + (p.left-lo)*(jhi-jlo) + (p.right - jlo)
				return chains, st, err
			}
			st.PairsAfterPhase1++
			st.CoarseCycles += r.enumeratePair(&insts[p.left].role[0], &insts[p.right].role[1], add)
		}
		st.Pairs += (hi - lo) * (len(insts) - lo)
	}
	return chains, st, ctx.Err()
}

// cedge is a coarse C-edge of a pair: statement i of the left transaction,
// j of the right, and the table they conflict on.
type cedge struct{ i, j, table int32 }

// coarseConflictTable is the coarse-grained C-edge test: a common table
// at least one statement writes. It returns the table's id (-1 if none).
func coarseConflictTable(s, t *tmplFacts) int32 {
	for _, ts := range s.tables {
		for _, tt := range t.tables {
			if ts == tt && (s.write == ts || t.write == ts) {
				return ts
			}
		}
	}
	return -1
}

// enumeratePair runs phase 2 for one transaction-instance pair: coarse
// C-edges, then deadlock cycles. A cycle needs T1 to hold a lock from an
// earlier statement while waiting at a later one (and symmetrically for
// T2): S1a < S1b and S2a < S2b in execution order, with C-edges
// (S1b, S2a) and (S2b, S1a). Cycles are passed to emit with their chain
// identity in enumeration order; the returned count is the number emitted.
func (r *run) enumeratePair(p1, p2 *instance, emit func(Cycle, chainID)) int {
	s1, s2 := p1.Txn.Stmts, p2.Txn.Stmts
	edges := r.cedges[:0] // in (i, j) order
	for i := range s1 {
		fi := r.facts[p1.first+int32(i)].tmpl
		for j := range s2 {
			if tab := coarseConflictTable(fi, r.facts[p2.first+int32(j)].tmpl); tab >= 0 {
				edges = append(edges, cedge{int32(i), int32(j), tab})
			}
		}
	}
	r.cedges = edges
	count := 0
	for _, e1 := range edges {
		for _, e2 := range edges {
			// e1 = (S1b, S2a), e2 = (S1a, S2b).
			if e2.i >= e1.i {
				break
			}
			if e1.j >= e2.j {
				continue
			}
			count++
			at := [4]int32{p1.first + e2.i, p1.first + e1.i, p2.first + e1.j, p2.first + e2.j}
			key := func(n int) int32 { return r.facts[at[n]].key }
			id := chainID{{p1.api, key(0), key(1), e2.table, e1.table}, {p2.api, key(2), key(3), e1.table, e2.table}}
			if slices.Compare(id[1][:], id[0][:]) < 0 {
				id[0], id[1] = id[1], id[0]
			}
			emit(Cycle{
				T1: p1, T2: p2,
				S1a: s1[e2.i], S1b: s1[e1.i],
				S2a: s2[e1.j], S2b: s2[e2.j],
				Table1: r.names[e1.table], Table2: r.names[e2.table],
				at: at,
			}, id)
		}
	}
	return count
}

// chainID is a cycle's identity as ids, what Cycle.identity renders: per
// side, its API, the keys of the statements it holds and waits at, and the
// tables of the C-edges it holds and waits on; the sides in a fixed order,
// so the mirror pairing agrees.
type chainID [2][5]int32

// slab carves slices from chunks of 256 elements or more, so that what a
// run keeps per chain or per path condition costs one allocation a chunk.
type slab[T any] struct{ free []T }

// carve returns n zero elements with no capacity beyond them.
func (s *slab[T]) carve(n int) []T {
	if n > len(s.free) {
		s.free = make([]T, max(n, 256))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}
