package core

// Indexed, parallel candidate enumeration (phases 1–2).
//
// The naive reference loop (enumerateNaive in enum_test.go, the
// differential tests' oracle) probes every cross-instance transaction
// pair — O(instances²) signature probes even though on large corpora
// almost no pair conflicts. The indexed path inverts the phase-1
// signature instead: per-table posting
// lists of the A2-role instances that access, and that write, each
// table. A pair survives phase 1 iff each side writes a table the other
// accesses, so the exact survivor set for one A1-role instance L is
//
//	(⋃_{t ∈ written(L)} accessors[t]) ∩ (⋃_{t ∈ accessed(L)} writers[t])
//
// restricted to instances from traces at or after L's own — computed by
// walking posting-list suffixes, never the full instance set. Work is
// then sharded over a bounded worker pool at A1-instance granularity:
// each worker screens its survivors (phase 0) and enumerates their
// coarse cycles (phase 2) independently, and a serial merge replays the
// buffered outcomes in the naive loop's exact (trace_i, trace_j, txn1,
// txn2) order. Chain formation — and with it every downstream report
// byte — is therefore independent of both the index and the worker
// count.

import (
	"context"
	"sort"

	"weseer/internal/staticlint"
	"weseer/internal/trace"
)

// enumInst is one renamed transaction instance in a fixed role (A1 or
// A2), addressed by its global ordinal: instances are numbered in
// (trace, transaction) order, so ordinal order is exactly the naive
// loop's iteration order within a role.
type enumInst struct {
	trace int // index into the traces slice
	txn   *trace.Txn
	inst  *trace.Trace // the renamed trace this transaction belongs to
}

// flattenRole renames every trace under prefix and flattens its
// transactions into ordinal order, returning the instances, their
// phase-1 signatures, and start[i] = the first ordinal belonging to
// trace i (len(start) == len(traces)+1).
func flattenRole(traces []*trace.Trace, prefix string) (insts []enumInst, sigs []txnSig, start []int) {
	start = make([]int, len(traces)+1)
	for i, tr := range traces {
		start[i] = len(insts)
		renamed := tr.Rename(prefix)
		for _, txn := range renamed.Txns {
			acc, wr := txn.Tables()
			insts = append(insts, enumInst{trace: i, txn: txn, inst: renamed})
			sigs = append(sigs, txnSig{acc: acc, wr: wr})
		}
	}
	start[len(traces)] = len(insts)
	return insts, sigs, start
}

// conflictIndex holds the per-table posting lists over the A2-role
// instances. Lists are built in ordinal order, so they are sorted
// ascending and suffix scans (ordinal >= some start) are a binary
// search plus a linear walk.
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

// enumScratch is one worker's reusable marking state. The epoch trick
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

// candidates computes the exact phase-1 survivor set for one A1-role
// instance with signature sig, restricted to A2 ordinals >= startOrd,
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
	// Collection order above follows map iteration; the merge contract
	// wants naive (ordinal) order.
	sort.Ints(s.cand)
	return s.cand, probes
}

// pairHit is one phase-1 survivor of a left instance: the A2 ordinal
// plus the coarse cycles phase 2 found (none when the phase-0 pair
// screen pruned the pair).
type pairHit struct {
	right  int
	cycles []Cycle
}

// leftOutcome is one A1-role instance's buffered enumeration result,
// merged serially afterwards.
type leftOutcome struct {
	// stats is what this instance counted: the universe pairs it accounts
	// for (closed form), the posting-list entries walked for it, its
	// phase-1 survivors, the phase-0 screen and the coarse cycles.
	stats Stats
	hits  []pairHit
	err   error
}

// enumerateIndexed is the indexed, parallel implementation of phases
// 1–2. It produces the same chains, in the same order, with the same
// funnel counters as enumerateNaive (plus Stats.IndexProbes, which the
// naive loop leaves zero).
func (r *run) enumerateIndexed(ctx context.Context, traces []*trace.Trace, workers int) ([]*chain, Stats, error) {
	lefts, leftSigs, leftStart := flattenRole(traces, "A1.")
	rights, rightSigs, rightStart := flattenRole(traces, "A2.")

	var ix *conflictIndex
	if !r.opts.SkipPhase1 {
		ix = buildConflictIndex(rightSigs)
	}
	if r.ps != nil {
		// Freeze the phase-0 shape cache before fanning out: workers (and
		// later the phase-3 pool) read it without locking.
		for i, tr := range traces {
			for li := leftStart[i]; li < leftStart[i+1]; li++ {
				r.ps.shape(tr.API, lefts[li].txn)
			}
			for ri := rightStart[i]; ri < rightStart[i+1]; ri++ {
				r.ps.shape(tr.API, rights[ri].txn)
			}
		}
	}

	// enumLeft runs one A1-role instance: candidate discovery through the
	// index, the phase-0 pair screen, and per-pair coarse-cycle
	// enumeration, all into a private outcome.
	enumLeft := func(li int, s *enumScratch) leftOutcome {
		var out leftOutcome
		L := lefts[li]
		startOrd := rightStart[L.trace]
		out.stats.Pairs = len(rights) - startOrd
		var cands []int
		if ix != nil {
			cands, out.stats.IndexProbes = ix.candidates(leftSigs[li], startOrd, s)
		} else {
			// Phase-1 ablation: every pair in the suffix is a candidate.
			cands = make([]int, 0, len(rights)-startOrd)
			for ro := startOrd; ro < len(rights); ro++ {
				cands = append(cands, ro)
			}
		}
		if len(cands) == 0 {
			return out
		}
		api1 := traces[L.trace].API
		p1 := &instance{API: api1, Prefix: "A1.", Txn: L.txn, Trace: L.inst}
		for _, ro := range cands {
			if err := ctx.Err(); err != nil {
				out.err = err
				return out
			}
			R := rights[ro]
			if r.ps != nil {
				out.stats.PrescreenPairs++
				sh1 := r.ps.txns[L.txn]
				sh2 := r.ps.txns[R.txn]
				if !staticlint.PairDeadlockPossible(sh1, sh2, r.scm) {
					out.stats.PrescreenPairsPruned++
					continue
				}
			}
			p2 := &instance{API: traces[R.trace].API, Prefix: "A2.", Txn: R.txn, Trace: R.inst}
			hit := pairHit{right: ro}
			out.stats.CoarseCycles += enumeratePair(p1, p2, func(cyc Cycle) {
				hit.cycles = append(hit.cycles, cyc)
			})
			out.stats.PairsAfterPhase1++
			out.hits = append(out.hits, hit)
		}
		return out
	}

	outcomes := make([]leftOutcome, len(lefts))
	scratch := make([]*enumScratch, max(workers, 1)+1) // by worker id, each touched by its worker only
	forEachIndex(ctx, len(lefts), workers, func(li, tid int) {
		if scratch[tid] == nil {
			scratch[tid] = newEnumScratch(len(rights))
		}
		outcomes[li] = enumLeft(li, scratch[tid])
	})

	// Aggregate the funnel counters. Order is irrelevant here; partially
	// processed instances (cancellation) contribute what they finished,
	// like the naive loop's partial stats.
	var total Stats
	var err error
	for li := range outcomes {
		out := &outcomes[li]
		if out.err != nil && err == nil {
			err = out.err
		}
		total.add(&out.stats)
	}
	if err == nil {
		err = ctx.Err()
	}

	// Serial merge: replay the buffered hits in the naive loop's
	// (trace_i, trace_j, txn1, txn2) order, so chains form in the same
	// first-occurrence order at any worker count. Each instance's hits
	// are sorted by right ordinal and ordinals group by trace, so the
	// per-(i,j) slice of every instance is a contiguous window.
	byKey := map[string]*chain{}
	var chains []*chain
	add := func(cyc Cycle) {
		key := cyc.dedupKey()
		ch, ok := byKey[key]
		if !ok {
			ch = &chain{key: key}
			byKey[key] = ch
			chains = append(chains, ch)
		}
		ch.cycles = append(ch.cycles, cyc)
	}
	ptr := make([]int, len(lefts))
	for i := range traces {
		for j := i; j < len(traces); j++ {
			for li := leftStart[i]; li < leftStart[i+1]; li++ {
				hits := outcomes[li].hits
				hi := ptr[li]
				for hi < len(hits) && rights[hits[hi].right].trace == j {
					for _, cyc := range hits[hi].cycles {
						add(cyc)
					}
					hi++
				}
				ptr[li] = hi
			}
		}
	}
	return chains, total, err
}
