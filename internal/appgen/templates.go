package appgen

import (
	"fmt"
	"slices"

	"weseer/internal/apps/appkit"
	"weseer/internal/concolic"
	"weseer/internal/orm"
)

// opKind enumerates the statement shapes filler templates are built
// from. Fillers are designed to be *inert*: they generate realistic lock
// traffic, surviving phase-1 pairs, coarse cycles, and genuine solver
// work — but every cycle formula they produce is unsatisfiable, so a
// corpus's diagnosed deadlocks are exactly its planted anti-patterns.
// The inertness argument, op by op:
//
//   - opPointRead / opRangeRead only touch read-only satellites, which no
//     template ever writes; S–S lock pairs never conflict, so no C-edge
//     can involve them.
//   - opInsertRow inserts exactly one row per insert-only satellite per
//     template, immediately (s.Exec, not Persist — a deferred flush
//     would reorder the INSERT after the hub update and reopen cycles),
//     with tables visited in one module-wide order. A crossing cycle
//     needs the two transactions to visit two tables in opposite orders,
//     which a consistent order makes impossible.
//   - opOrderedPair is the contention hot spot: two UPDATEs on the
//     module's hub at symbolic row ids, concretely swapped into
//     ascending order and guarded by a strict lo < hi path condition.
//     Any hub–hub crossing cycle therefore implies
//     lo1 < hi1 = lo2 < hi2 = lo1 — a contradiction the solver must
//     discover, i.e. real UNSAT work. The pair is always the template's
//     last statement, so insert-vs-hub crossings would need a reversed
//     program order that no template has.
//   - opGuard adds input-dependent branching (path-condition depth)
//     and, when its concrete branch fails, skips a suffix of the body —
//     skipping preserves relative statement order, so the discipline
//     above survives.
type opKind uint8

const (
	opGuard       opKind = iota // if input[A] <= Thr, else skip next Skip ops
	opPointRead                 // SELECT by primary key at input[A]
	opRangeRead                 // SELECT via secondary index at input[A]
	opInsertRow                 // immediate INSERT, fresh concrete id, HUB_ID=input[A]
	opOrderedPair               // two hub UPDATEs at ascending ids input[A], input[B]
)

// op is one statement (or guard) of a template body.
type op struct {
	Table, SQL string // SQL is the statement's text, shared by every op of its Kind and Table
	Thr        int64  // opGuard threshold
	Skip       int32  // opGuard: ops skipped when the branch fails
	Kind       opKind
	A, B       uint8 // input indexes
}

// genInput is one template input: its symbolic name, the concrete value unit
// tests collect with, and the inclusive range workload clients draw from.
type genInput struct {
	Name   string
	Val    int64
	Lo, Hi int64
}

// genTemplate is one generated transaction template, filler or planted, in
// executable form. Run takes one concolic value per input — symbolic under
// collection, rng-drawn concrete values under the workload harness — so the
// same body serves both the diagnosis pipeline and the Fig. 10/11-style
// before/after measurement.
type genTemplate struct {
	Name   string
	Inputs []genInput
	Run    func(e *concolic.Engine, in []concolic.Value) error
}

// unitTest compiles the template to the collection surface, making every
// input symbolic at its unit-test value (name scheme "Template.input").
func (g genTemplate) unitTest() appkit.UnitTest {
	return appkit.UnitTest{Name: g.Name, Run: func(e *concolic.Engine) error {
		in := make([]concolic.Value, len(g.Inputs))
		for i, gi := range g.Inputs {
			in[i] = e.MakeSymbolic(g.Name+"."+gi.Name, concolic.Int(gi.Val))
		}
		return orm.Guard(func() error { return g.Run(e, in) })
	}}
}

var fillerVerbs = []string{
	"Get", "List", "Sync", "Apply", "Post", "Refresh", "Settle",
	"Reconcile", "Submit", "Renew", "Review", "Close",
}

// fillers generates the cfg.Templates filler templates over the module
// layout. Templates round-robin across modules so every hub sees
// contention.
func (a *App) fillers(r *rng, mods []module, texts stmtTexts) []genTemplate {
	cfg := a.cfg
	rowID := func(name string, v int64) genInput {
		return genInput{Name: name, Val: v, Lo: 1, Hi: int64(cfg.Rows)}
	}
	out := make([]genTemplate, 0, cfg.Templates)
	for k := 0; k < cfg.Templates; k++ {
		mod := mods[k%len(mods)]
		name := fmt.Sprintf("%s%s_%d", fillerVerbs[r.intn(len(fillerVerbs))], mod.Name, k)
		// Inputs: two hub row ids (the ordered-pair endpoints; distinct
		// concrete values so the pair update really executes) plus one
		// owner id for satellite lookups.
		x := int64(r.rangeInt(1, cfg.Rows))
		y := int64(r.rangeInt(1, cfg.Rows))
		if x == y {
			y = x%int64(cfg.Rows) + 1
		}
		inputs := []genInput{rowID("row_a", x), rowID("row_b", y), rowID("owner", int64(r.rangeInt(1, cfg.Rows)))}

		// Warm phase: 0–2 reference reads outside the transaction.
		var warm []op
		for i, n := 0, r.intn(3); i < n && len(mod.Reads) > 0; i++ {
			warm = append(warm, texts.op(opPointRead, mod.Reads[r.intn(len(mod.Reads))], 2, 0))
		}

		// Body: reads, then ordered inserts, then (for hot templates)
		// the hub pair update.
		body := make([]op, 0, 3+len(mod.Ins)+cfg.Nest) // reads, inserts, the pair, the guards
		for i, n := 0, r.rangeInt(1, 2); i < n && len(mod.Reads) > 0; i++ {
			kind := opPointRead
			if r.pct(50) {
				kind = opRangeRead
			}
			body = append(body, texts.op(kind, mod.Reads[r.intn(len(mod.Reads))], r.intn(3), 0))
		}
		for i, tab := range mod.Ins {
			// Subset of insert satellites, module order preserved.
			if r.pct(70) {
				body = append(body, texts.op(opInsertRow, tab, i%2, 0))
			}
		}
		if r.pct(cfg.HotPct) {
			body = append(body, texts.op(opOrderedPair, mod.Hub, 0, 1))
		}
		// Nesting: wrap suffixes of the body in input guards, innermost
		// first, so depth-d templates carry d extra path conditions.
		for d := 0; d < cfg.Nest; d++ {
			at := r.intn(len(body) + 1)
			thr := int64(cfg.Rows + 1) // concretely true: inputs are <= Rows
			if r.pct(15) {
				thr = 0 // concretely false: this suffix is dead on this path
			}
			g := op{Kind: opGuard, A: uint8(r.intn(3)), Thr: thr, Skip: int32(len(body) - at)}
			body = slices.Insert(body, at, g)
		}
		out = append(out, a.filler(name, inputs, warm, body))
	}
	return out
}

// filler compiles one filler template: the warm reads run auto-commit, as
// the model apps' cache-hydrating reads do, then the body runs in one
// transaction.
func (a *App) filler(name string, inputs []genInput, warm, body []op) genTemplate {
	return genTemplate{Name: name, Inputs: inputs, Run: func(e *concolic.Engine, in []concolic.Value) error {
		s := orm.NewSession(a.mapping, concolic.NewConn(e, a.db))
		if err := a.runOps(e, s, warm, in); err != nil {
			return err
		}
		return s.Transactional(func() error {
			return a.runOps(e, s, body, in)
		})
	}}
}

func (a *App) runOps(e *concolic.Engine, s *orm.Session, ops []op, in []concolic.Value) error {
	for i := 0; i < len(ops); i++ {
		o := ops[i]
		switch o.Kind {
		case opGuard:
			if !e.If(e.Le(in[o.A], concolic.Int(o.Thr))) {
				i += int(o.Skip)
			}
		case opPointRead:
			s.Query(o.SQL, // line breaks in runOps stay put: recorded trigger locations name these lines
				[]concolic.Value{in[o.A]}, "t")
		case opRangeRead:
			s.Query(o.SQL,
				[]concolic.Value{in[o.A]}, "t")
		case opInsertRow:
			id := a.db.NextID(o.Table)
			if _, err := s.Exec(
				o.SQL,
				[]concolic.Value{concolic.Int(id), in[o.A], concolic.Int(id), concolic.Str("gen")}); err != nil {
				return err
			}
		case opOrderedPair:
			lo, hi := in[o.A], in[o.B]
			if !e.If(e.Lt(lo, hi)) {
				lo, hi = hi, lo
			}
			// Strict lo < hi path condition: a self- or cross-pair
			// crossing cycle then implies lo1<hi1=lo2<hi2=lo1, UNSAT.
			if e.If(e.Lt(lo, hi)) {
				bump := e.Add(lo, concolic.Int(1))
				for _, id := range []concolic.Value{lo, hi} {
					if _, err := s.Exec(
						o.SQL,
						[]concolic.Value{bump, id}); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

var opSQL = [...]string{
	opPointRead:   `SELECT * FROM %s t WHERE t.ID = ?`,
	opRangeRead:   `SELECT * FROM %s t WHERE t.OWNER_ID = ?`,
	opInsertRow:   `INSERT INTO %s (ID, HUB_ID, SEQ, NOTE) VALUES (?, ?, ?, ?)`,
	opOrderedPair: `UPDATE %s SET BALANCE = ? WHERE ID = ?`,
}

// stmtTexts holds a corpus's statement texts, one string per op kind and
// table.
type stmtTexts map[stmtKey]string

type stmtKey struct {
	kind  opKind
	table string
}

// op builds a statement op on a table over inputs a and b. Its SQL is
// formatted once per (kind, table), not per op and not on every execution.
func (texts stmtTexts) op(kind opKind, table string, a, b int) op {
	k := stmtKey{kind, table}
	sql, ok := texts[k]
	if !ok {
		sql = fmt.Sprintf(opSQL[kind], table)
		texts[k] = sql
	}
	return op{Kind: kind, Table: table, SQL: sql, A: uint8(a), B: uint8(b)}
}
