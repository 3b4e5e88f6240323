package solver

import "context"

// Hooks for the tests of package solver_test, which import the analyzer
// for its corpora and so cannot live in package solver.

// HardFormula is hardFormula.
var HardFormula = hardFormula

// PollCtx returns a context whose Err turns non-nil at its k-th poll;
// parent must be cancelable, or Solve does not poll.
func PollCtx(parent context.Context, k int) context.Context {
	return &pollCtx{Context: parent, k: k}
}

// Polls returns how often ctx, a PollCtx, has been polled.
func Polls(ctx context.Context) int { return ctx.(*pollCtx).polls }

// SetBudget caps each of sv's Solve calls at n theory calls (0: the
// package's default).
func SetBudget(sv *Solver, n int) { sv.budget = n }
