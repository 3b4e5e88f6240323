package minidb

import (
	"fmt"

	"weseer/internal/smt"
	"weseer/internal/sqlast"
)

// Predicate evaluation over bound rows, with SQL ternary-logic semantics
// reduced to the fragment we need: a comparison involving NULL is not
// satisfied, and IS NULL tests nullness directly.

// resolve produces the concrete value of an operand. Column references
// need their plan step's row bound; ok is false otherwise.
func (ex *executor) resolve(op *operand) (Datum, bool) {
	switch op.Kind {
	case sqlast.Param:
		if op.Ord >= len(ex.params) {
			panic(fmt.Sprintf("minidb: parameter ordinal %d out of range", op.Ord))
		}
		return ex.params[op.Ord], true
	case sqlast.ConstInt:
		return I64(op.Int), true
	case sqlast.ConstReal:
		return Real(op.Real), true
	case sqlast.ConstStr:
		return Str(op.Str), true
	case sqlast.Null:
		return NullDatum(KInt), true
	case sqlast.Col:
		if op.slot < 0 || !ex.steps[op.slot].bound {
			return Datum{}, false
		}
		return ex.steps[op.slot].row[op.pos], true
	}
	panic("minidb: bad operand kind")
}

// evalPred evaluates one predicate; unresolvable operands make it false.
func (ex *executor) evalPred(p *pred) bool {
	l, ok := ex.resolve(&p.l)
	if !ok {
		return false
	}
	if p.isNull {
		return l.Null
	}
	r, ok := ex.resolve(&p.r)
	if !ok {
		return false
	}
	if l.Null || r.Null {
		return false // SQL UNKNOWN collapses to not-satisfied
	}
	c := l.Cmp(r)
	switch p.op {
	case smt.EQ:
		return c == 0
	case smt.NE:
		return c != 0
	case smt.LT:
		return c < 0
	case smt.LE:
		return c <= 0
	case smt.GT:
		return c > 0
	case smt.GE:
		return c >= 0
	}
	panic("minidb: bad predicate op")
}

func (ex *executor) evalAll(preds []pred) bool {
	for i := range preds {
		if !ex.evalPred(&preds[i]) {
			return false
		}
	}
	return true
}

// evalCond evaluates the conjunction of simple predicates and disjunctive
// groups.
func (ex *executor) evalCond(c *cond) bool {
	if !ex.evalAll(c.preds) {
		return false
	}
	for _, g := range c.ors {
		sat := false
		for _, dj := range g {
			if sat = ex.evalAll(dj); sat {
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}
