package solver

import (
	"context"
	"math"
	"testing"
	"time"

	"weseer/internal/smt"
)

// hardFormula builds a formula the solver needs many DPLL iterations
// for: a chain of disjunctions over disequalities forcing case splits.
func hardFormula(n int) smt.Expr {
	var parts []smt.Expr
	for i := 0; i < n; i++ {
		x := smt.NewVar("x"+string(rune('a'+i%26))+itoa(i), smt.SortInt)
		y := smt.NewVar("y"+string(rune('a'+i%26))+itoa(i), smt.SortInt)
		parts = append(parts,
			smt.Or(smt.Ne(x, y), smt.Lt(smt.Add(x, y), smt.Int(int64(i)))),
			smt.Ne(x, smt.Int(int64(i))),
		)
	}
	return smt.And(parts...)
}

// solve is a fresh Solver's Solve with the default limits and no
// cancellation.
func solve(f smt.Expr) Result { return new(Solver).Solve(context.Background(), f) }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestSolveCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := hardFormula(12)
	start := time.Now()
	res := new(Solver).Solve(ctx, f)
	if res.Status != UNKNOWN {
		t.Fatalf("canceled solve returned %v, want UNKNOWN", res.Status)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("canceled solve took %v", el)
	}
}

// TestSolveCtxBackgroundMatchesSolve: a live cancelable context, which
// makes the search poll it, decides what the background context decides.
func TestSolveCtxBackgroundMatchesSolve(t *testing.T) {
	f := hardFormula(6)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a := solve(f)
	b := new(Solver).Solve(ctx, f)
	if a.Status != b.Status {
		t.Fatalf("background %v, cancelable %v", a.Status, b.Status)
	}
	if a.Status == SAT && !smt.Eval(f, b.Model).B {
		t.Fatal("the cancelable solve's model does not satisfy the formula")
	}
}

// pollCtx is a live context whose Err turns non-nil at its k-th poll: a
// cancellation that lands at a fixed point of the search, with no clock.
type pollCtx struct {
	context.Context
	k, polls int
}

func (c *pollCtx) Err() error {
	if c.polls++; c.polls >= c.k {
		return context.Canceled
	}
	return nil
}

func TestSolveCtxCancelMidRun(t *testing.T) {
	// A cancellation that lands halfway through the search: the first poll
	// that sees it ends the search UNKNOWN.
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := hardFormula(20)
	free := &pollCtx{Context: live, k: math.MaxInt}
	var sv Solver
	if res := sv.Solve(free, f); res.Status == UNKNOWN {
		t.Fatal("the uncanceled solve gave up")
	}
	if free.polls < 4 {
		t.Fatalf("the search polls its context %d times; nothing lands mid-run", free.polls)
	}
	ctx := &pollCtx{Context: live, k: free.polls / 2}
	res := sv.Solve(ctx, f)
	if res.Status != UNKNOWN {
		t.Fatalf("status = %v, want UNKNOWN", res.Status)
	}
	if ctx.polls != ctx.k {
		t.Fatalf("canceled at poll %d, the search went on to poll %d", ctx.k, ctx.polls)
	}
}
