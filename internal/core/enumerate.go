package core

// Indexed candidate enumeration (phases 1–2): one serial pass.
//
// The naive reference loop (enumerateNaive in enum_test.go, the
// differential tests' oracle) probes every cross-instance transaction
// pair — O(instances²) signature probes even though on large corpora
// almost no pair conflicts. The indexed path inverts the phase-1
// signature instead: per-table posting lists of the instances that
// access, and that write, each table. A pair survives phase 1 iff each
// side writes a table the other accesses, so the exact survivor set for
// one instance L is
//
//	(⋃_{t ∈ written(L)} accessors[t]) ∩ (⋃_{t ∈ accessed(L)} writers[t])
//
// restricted to instances from traces at or after L's own — computed by
// walking posting-list suffixes, never the full instance set. The pass
// visits the survivors directly in the naive loop's (trace_i, trace_j,
// txn1, txn2) order: per left trace it gathers its transactions'
// candidates and stable-sorts them by right-hand trace, then enumerates
// (phase 2) each pair straight into the chain map. There is no worker
// pool here: the filters are cheap by design (Sec. V-B) and read the
// recorded traces in place — the stage copies
// nothing, and what every pair and cycle used to re-derive of a statement
// (its tables, its identity key) is computed once per recorded statement,
// in flatten; the expensive stage, phase 3, has the workers.

import (
	"context"
	"slices"
	"sort"

	"weseer/internal/trace"
)

// enumInst is one recorded transaction, addressed by its global ordinal:
// transactions are numbered in (trace, transaction) order, so ordinal order
// is the naive loop's iteration order on either side of a pair. The same
// entry serves both roles — left of a pair it plays "A1.", right "A2.".
type enumInst struct {
	trace int // index into the traces slice
	txn   *trace.Txn
}

// flatten computes every recorded statement's facts and flattens the
// transactions into ordinal order, copying nothing. It returns the
// instances, their phase-1 signatures, and start[i] = the first ordinal
// belonging to trace i (len(start) == len(traces)+1).
func (r *run) flatten(traces []*trace.Trace) (insts []enumInst, sigs []txnSig, start []int) {
	start = make([]int, len(traces)+1)
	for i, tr := range traces {
		start[i] = len(insts)
		r.addFacts(tr)
		for _, txn := range tr.Txns {
			acc, wr := txn.Tables()
			insts = append(insts, enumInst{trace: i, txn: txn})
			sigs = append(sigs, txnSig{acc: acc, wr: wr})
		}
	}
	start[len(traces)] = len(insts)
	return insts, sigs, start
}

// conflictIndex holds the per-table posting lists over the instances.
// Lists are built in ordinal order, so they are sorted ascending and
// suffix scans (ordinal >= some start) are a binary search plus a linear
// walk.
type conflictIndex struct {
	accessors map[string][]int
	writers   map[string][]int
}

func buildConflictIndex(sigs []txnSig) *conflictIndex {
	ix := &conflictIndex{accessors: map[string][]int{}, writers: map[string][]int{}}
	for ord, sig := range sigs {
		for t := range sig.acc {
			ix.accessors[t] = append(ix.accessors[t], ord)
		}
		for t := range sig.wr {
			ix.writers[t] = append(ix.writers[t], ord)
		}
	}
	return ix
}

// enumScratch is the pass's reusable marking state. The epoch trick
// makes clearing O(1): a mark is live only when its slot equals the
// current epoch, so bumping the epoch invalidates every mark at once.
type enumScratch struct {
	epoch        uint32
	markA, markB []uint32
	cand         []int
}

func newEnumScratch(n int) *enumScratch {
	return &enumScratch{markA: make([]uint32, n), markB: make([]uint32, n)}
}

// suffix returns the tail of a sorted posting list with ordinal >= lo.
func suffix(list []int, lo int) []int {
	k := sort.SearchInts(list, lo)
	return list[k:]
}

// candidates computes the exact phase-1 survivor set for one instance
// with signature sig, restricted to right-hand ordinals >= startOrd,
// in ascending ordinal order. probes counts the posting-list entries
// walked — the work the index performs in place of the naive loop's
// pairwise signature probes.
func (ix *conflictIndex) candidates(sig txnSig, startOrd int, s *enumScratch) (cands []int, probes int) {
	s.epoch++
	if s.epoch == 0 { // uint32 wraparound: stale slots could alias, reset
		for i := range s.markA {
			s.markA[i], s.markB[i] = 0, 0
		}
		s.epoch = 1
	}
	// Direction A: instances that access a table L writes.
	for t := range sig.wr {
		for _, r := range suffix(ix.accessors[t], startOrd) {
			probes++
			s.markA[r] = s.epoch
		}
	}
	// Direction B: instances that write a table L accesses. A pair is a
	// survivor exactly when both directions hold — txnSig.conflicts.
	s.cand = s.cand[:0]
	for t := range sig.acc {
		for _, r := range suffix(ix.writers[t], startOrd) {
			probes++
			if s.markB[r] != s.epoch {
				s.markB[r] = s.epoch
				if s.markA[r] == s.epoch {
					s.cand = append(s.cand, r)
				}
			}
		}
	}
	// Collection order above follows map iteration; the pass wants naive
	// (ordinal) order.
	sort.Ints(s.cand)
	return s.cand, probes
}

// enumerateIndexed is the indexed implementation of phases 1–2. It
// produces the same chains, in the same order, with the same funnel
// counters as enumerateNaive (plus Stats.IndexProbes, which the naive
// loop leaves zero). Cancellation is checked per survivor: what is
// returned with ctx's error is a prefix of the full enumeration, with the
// chains and counters the naive loop holds on reaching the same pair —
// except IndexProbes, which is booked per left trace and so covers the
// whole of the trace the pass stopped in.
func (r *run) enumerateIndexed(ctx context.Context, traces []*trace.Trace) ([]*chain, Stats, error) {
	var st Stats
	insts, sigs, start := r.flatten(traces)
	ix, scratch := buildConflictIndex(sigs), newEnumScratch(len(insts))

	byKey := map[string]*chain{}
	var chains []*chain
	add := func(cyc Cycle) {
		key := r.dedupKey(cyc)
		ch, ok := byKey[key]
		if !ok {
			ch = &chain{key: key}
			byKey[key] = ch
			chains = append(chains, ch)
		}
		ch.cycles = append(ch.cycles, cyc)
	}

	type pair struct{ left, right int }
	var pairs []pair
	for i, tr := range traces {
		lo, hi := start[i], start[i+1]
		// Trace i's phase-1 survivors in (txn1, txn2) order ...
		pairs = pairs[:0]
		for li := lo; li < hi; li++ {
			cands, probes := ix.candidates(sigs[li], lo, scratch)
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
			L, R := insts[p.left], insts[p.right]
			if err := ctx.Err(); err != nil {
				// The universe pairs of trace i the naive loop visits before p.
				jlo, jhi := start[R.trace], start[R.trace+1]
				st.Pairs += (hi-lo)*(jlo-lo) + (p.left-lo)*(jhi-jlo) + (p.right - jlo)
				return chains, st, err
			}
			api2 := traces[R.trace].API
			st.PairsAfterPhase1++
			p1 := &instance{API: tr.API, Prefix: "A1.", Txn: L.txn, Trace: tr}
			p2 := &instance{API: api2, Prefix: "A2.", Txn: R.txn, Trace: traces[R.trace]}
			st.CoarseCycles += r.enumeratePair(p1, p2, add)
		}
		st.Pairs += (hi - lo) * (len(insts) - lo)
	}
	return chains, st, ctx.Err()
}
