package core

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"weseer/internal/schema"
	"weseer/internal/smt"
	"weseer/internal/trace"
)

// oraclePathConds is pathConds' test oracle: a condition's neighbours are
// found by comparing its variables with every other condition's, O(n²) in
// the trace's conditions, as the analysis once found them.
func (r *run) oraclePathConds(tr *trace.Trace) []pathCond {
	vars := make([][]int32, len(tr.PathConds))
	r.mu.Lock()
	for i, pc := range tr.PathConds {
		for _, v := range smt.Vars(nil, pc.Cond) {
			if id := r.symbol(v.Name); !slices.Contains(vars[i], id) {
				vars[i] = append(vars[i], id)
			}
		}
	}
	r.mu.Unlock()
	conds := make([]pathCond, len(tr.PathConds))
	for i := range conds {
		ids := slices.Clone(vars[i])
		for j := range conds {
			if j != i && slices.ContainsFunc(vars[j], func(v int32) bool { return slices.Contains(vars[i], v) }) {
				ids = append(ids, int32(j))
			}
		}
		conds[i] = pathCond{ids: ids, nvars: int32(len(vars[i])), after: int32(tr.PathConds[i].AfterStmt)}
	}
	return conds
}

// CheckConesAgainstOracle holds every path condition's variables and
// neighbours, and every group's cone (scratch.in) and skeleton key,
// computed on the workers as phase 3 does, to those of the oracle's
// pairwise neighbours, on one worker and on four. Exported for the corpus
// test in package core_test.
func CheckConesAgainstOracle(t *testing.T, scm *schema.Schema, traces []*trace.Trace) {
	t.Helper()
	ctx := context.Background()
	type group struct {
		key []byte
		in  [2][]int32
	}
	for _, workers := range []int{1, 4} {
		r := NewAnalyzer(scm, WithParallelism(workers)).newRun()
		chains, _, err := r.flattenEnumerate(ctx, traces)
		if err != nil {
			t.Fatal(err)
		}
		r.settle(chains)
		got := make([][]group, len(chains))
		forEachIndex(ctx, len(chains), workers, func(i, tid int) {
			sc := &r.memo.scratch[tid]
			for _, cyc := range chains[i].cycles {
				key := r.skeletonKey(cyc, r.templates(cyc, sc), sc)
				got[i] = append(got[i], group{slices.Clone(key), [2][]int32{slices.Clone(sc.in[0]), slices.Clone(sc.in[1])}})
			}
		})
		for tr, conds := range r.conds {
			oracle := r.oraclePathConds(tr)
			for i := range conds {
				if !slices.Equal(conds[i].ids, oracle[i].ids) || conds[i].nvars != oracle[i].nvars {
					t.Fatalf("%s condition %d: variables and neighbours %v (%d variables), oracle's %v (%d)",
						tr.API, i, conds[i].ids, conds[i].nvars, oracle[i].ids, oracle[i].nvars)
				}
			}
			r.conds[tr] = oracle
		}
		groups, sc := 0, &r.memo.scratch[0]
		for i, ch := range chains {
			for k, cyc := range ch.cycles {
				key, g := r.skeletonKey(cyc, r.templates(cyc, sc), sc), got[i][k]
				if !slices.Equal(g.in[0], sc.in[0]) || !slices.Equal(g.in[1], sc.in[1]) {
					t.Fatalf("%d workers: chain %d cycle %d: cones %v, oracle's %v", workers, i, k, g.in, sc.in)
				}
				if !bytes.Equal(g.key, key) {
					t.Fatalf("%d workers: chain %d cycle %d: skeleton key %x, oracle's %x", workers, i, k, g.key, key)
				}
				groups++
			}
		}
		if groups == 0 {
			t.Fatal("no group to check")
		}
	}
}
