package solver

// Differential fuzzing of the CDCL(T) engine against an enumeration
// oracle. The generator covers the fragment the analyzer actually emits:
// boolean variables, linear integer constraints (including coefficients
// and two-variable sums/differences), and string (in)equalities over
// variables and constants, combined by nested and/or/not. For every
// random formula the oracle enumerates the full cross-product domain;
// the solver must agree on SAT vs UNSAT, and every SAT model must
// re-verify by evaluation.

import (
	"context"
	"math/rand"
	"testing"

	"weseer/internal/smt"
)

// fuzzCase is one random formula over the fixed fuzz variable set.
type fuzzCase struct {
	f smt.Expr
}

const (
	fuzzIntDomain = 4 // int vars range over 0..3
	fuzzIters     = 600
)

var fuzzStrDomain = []string{"x", "y", "z", "w"}

// genFuzzCase builds one random formula. The int variables are
// domain-restricted inside the formula so the oracle's enumeration is
// decisive.
func genFuzzCase(rng *rand.Rand, ints, strs []smt.Var, bools []smt.Var) fuzzCase {
	strConsts := fuzzStrDomain[:3] // leave "w" outside the mentioned constants

	intTerm := func() smt.Expr {
		v := ints[rng.Intn(len(ints))]
		switch rng.Intn(4) {
		case 0:
			return smt.Add(v, ints[rng.Intn(len(ints))])
		case 1:
			return smt.Sub(v, ints[rng.Intn(len(ints))])
		case 2:
			return smt.Mul(smt.Int(int64(1+rng.Intn(3))), v)
		default:
			return v
		}
	}
	atom := func() smt.Expr {
		switch rng.Intn(3) {
		case 0: // linear integer comparison
			ops := []smt.CmpOp{smt.EQ, smt.NE, smt.LT, smt.LE, smt.GT, smt.GE}
			op := ops[rng.Intn(len(ops))]
			l := intTerm()
			if rng.Intn(2) == 0 {
				return smt.Compare(op, l, smt.Int(int64(rng.Intn(2*fuzzIntDomain))-2))
			}
			return smt.Compare(op, l, intTerm())
		case 1: // string (in)equality
			v := strs[rng.Intn(len(strs))]
			var r smt.Expr
			if rng.Intn(2) == 0 {
				r = smt.Str(strConsts[rng.Intn(len(strConsts))])
			} else {
				r = strs[rng.Intn(len(strs))]
			}
			if rng.Intn(2) == 0 {
				return smt.Eq(v, r)
			}
			return smt.Ne(v, r)
		default: // boolean variable, possibly negated
			b := bools[rng.Intn(len(bools))]
			if rng.Intn(2) == 0 {
				return smt.Negate(b)
			}
			return b
		}
	}
	var gen func(depth int) smt.Expr
	gen = func(depth int) smt.Expr {
		if depth == 0 || rng.Intn(3) == 0 {
			return atom()
		}
		n := 2 + rng.Intn(3)
		kids := make([]smt.Expr, n)
		for i := range kids {
			kids[i] = gen(depth - 1)
		}
		switch rng.Intn(3) {
		case 0:
			return smt.And(kids...)
		case 1:
			return smt.Or(kids...)
		default:
			return smt.Negate(smt.Or(kids...))
		}
	}

	f := gen(2 + rng.Intn(2))
	for _, v := range ints {
		f = smt.And(f, smt.Ge(v, smt.Int(0)), smt.Lt(v, smt.Int(fuzzIntDomain)))
	}
	return fuzzCase{f: f}
}

// oracleSAT enumerates every assignment over the fuzz domains.
func oracleSAT(f smt.Expr, ints, strs, bools []smt.Var) bool {
	m := smt.NewModel()
	var rec func(k int) bool
	rec = func(k int) bool {
		if k < len(ints) {
			for v := 0; v < fuzzIntDomain; v++ {
				m.Vars[ints[k].Name] = smt.IntValue(int64(v))
				if rec(k + 1) {
					return true
				}
			}
			return false
		}
		if k < len(ints)+len(strs) {
			for _, s := range fuzzStrDomain {
				m.Vars[strs[k-len(ints)].Name] = smt.StrValue(s)
				if rec(k + 1) {
					return true
				}
			}
			return false
		}
		if k < len(ints)+len(strs)+len(bools) {
			for _, b := range []bool{false, true} {
				m.Vars[bools[k-len(ints)-len(strs)].Name] = smt.BoolValue(b)
				if rec(k + 1) {
					return true
				}
			}
			return false
		}
		return smt.Eval(f, m).B
	}
	return rec(0)
}

// TestDifferentialFuzz cross-checks the CDCL(T) engine against the
// enumeration oracle on fuzzIters random mixed-theory formulas, solved by
// one Solver in turn: each verdict and its counters are a fresh Solver's.
func TestDifferentialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(20240805))
	ints := []smt.Var{
		smt.NewVar("i0", smt.SortInt),
		smt.NewVar("i1", smt.SortInt),
	}
	strs := []smt.Var{
		smt.NewVar("s0", smt.SortString),
		smt.NewVar("s1", smt.SortString),
	}
	bools := []smt.Var{
		smt.NewVar("p", smt.SortBool),
		smt.NewVar("q", smt.SortBool),
	}

	var sv Solver
	for iter := 0; iter < fuzzIters; iter++ {
		c := genFuzzCase(rng, ints, strs, bools)
		want := oracleSAT(c.f, ints, strs, bools)
		res := sv.Solve(context.Background(), c.f)
		if fresh := solve(c.f); fresh.Status != res.Status || fresh.Stats != res.Stats {
			t.Fatalf("iter %d: reused Solver %s %+v, fresh %s %+v for %s", iter, res.Status, res.Stats, fresh.Status, fresh.Stats, c.f)
		}
		switch res.Status {
		case SAT:
			if !want {
				t.Fatalf("iter %d: solver SAT but oracle UNSAT for %s", iter, c.f)
			}
			if res.Model == nil || !evalWithDefaults(c.f, res.Model) {
				t.Fatalf("iter %d: SAT model does not satisfy %s\nmodel: %v", iter, c.f, res.Model)
			}
		case UNSAT:
			if want {
				t.Fatalf("iter %d: solver UNSAT but oracle SAT for %s", iter, c.f)
			}
		default:
			t.Fatalf("iter %d: solver UNKNOWN under default limits for %s", iter, c.f)
		}
	}
}

// evalWithDefaults evaluates f under m, filling any variable the model
// omits with that sort's zero value (the solver's models may leave a
// variable out when every retained constraint holds with its default).
func evalWithDefaults(f smt.Expr, m *smt.Model) bool {
	full := smt.NewModel()
	for k, v := range m.Vars {
		full.Vars[k] = v
	}
	for name, s := range smt.VarSet(f) {
		if _, ok := full.Vars[name]; ok {
			continue
		}
		switch s {
		case smt.SortInt:
			full.Vars[name] = smt.IntValue(0)
		case smt.SortString:
			full.Vars[name] = smt.StrValue("")
		case smt.SortBool:
			full.Vars[name] = smt.BoolValue(false)
		default:
			return false
		}
	}
	return smt.Eval(f, full).B
}

// TestFuzzCorpusRegression pins a few formulas that exercised tricky
// paths during development (theory-core learning after backjumps,
// blocking-clause exhaustion, unit theory cores).
func TestFuzzCorpusRegression(t *testing.T) {
	i0 := smt.NewVar("i0", smt.SortInt)
	i1 := smt.NewVar("i1", smt.SortInt)
	s0 := smt.NewVar("s0", smt.SortString)
	p := smt.NewVar("p", smt.SortBool)
	cases := []struct {
		f    smt.Expr
		want Status
	}{
		// Theory conflict only at full assignment depth.
		{smt.And(
			smt.Or(smt.Eq(i0, smt.Int(1)), smt.Eq(i0, smt.Int(2))),
			smt.Or(smt.Eq(i1, smt.Int(1)), smt.Eq(i1, smt.Int(2))),
			smt.Ne(i0, i1), smt.Eq(i0, i1)), UNSAT},
		// Mixed string/bool/int with a single satisfying corner.
		{smt.And(
			smt.Or(p, smt.Eq(s0, smt.Str("x"))),
			smt.Negate(p),
			smt.Or(smt.Ne(s0, smt.Str("x")), smt.Gt(i0, smt.Int(2))),
			smt.Ge(i0, smt.Int(0)), smt.Lt(i0, smt.Int(4))), SAT},
		// Unit theory core: a constraint false on its own.
		{smt.And(smt.Lt(i0, smt.Int(0)), smt.Ge(i0, smt.Int(0))), UNSAT},
	}
	for i, c := range cases {
		res := solve(c.f)
		if res.Status != c.want {
			t.Fatalf("case %d: got %s, want %s for %s", i, res.Status, c.want, c.f)
		}
		if res.Status == SAT && !evalWithDefaults(c.f, res.Model) {
			t.Fatalf("case %d: SAT model does not satisfy %s", i, c.f)
		}
	}
}
