package trace

import (
	"encoding/json"
	"fmt"

	"weseer/internal/smt"
	"weseer/internal/sqlast"
)

// oracleDecode is the reflective decoder the one-pass reader replaced,
// kept as its oracle: json.Unmarshal into the wire structs, then a
// conversion that applies the same validation, the row-width rule
// included. It merges a repeated key where the reader rejects it.
func oracleDecode(data []byte) ([]*Trace, error) {
	var in []*traceJSON
	if err := json.Unmarshal(data, &in); err != nil || in == nil {
		return nil, err
	}
	out := make([]*Trace, len(in))
	for i, j := range in {
		if j == nil {
			return nil, fmt.Errorf("trace: trace %d is null", i)
		}
		out[i] = new(Trace)
		if err := out[i].fromJSON(j); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fromJSON sets tr to the trace its wire form in describes.
func (tr *Trace) fromJSON(in *traceJSON) error {
	tr.API = in.API
	tr.Stats = in.Stats
	tr.Inputs, tr.Txns, tr.PathConds = nil, nil, nil
	for _, ij := range in.Inputs {
		input, err := decodeInput(ij)
		if err != nil {
			return err
		}
		tr.Inputs = append(tr.Inputs, input)
	}
	for _, tj := range in.Txns {
		txn := &Txn{ID: tj.ID, Committed: tj.Committed}
		for _, sj := range tj.Stmts {
			parsed, err := sqlast.Parse(sj.SQL)
			if err != nil {
				return fmt.Errorf("trace: re-parsing %q: %w", sj.SQL, err)
			}
			st := &Stmt{Seq: sj.Seq, SQL: sj.SQL, Parsed: parsed, Plan: sj.Plan, Trigger: sj.Trigger}
			if sj.Sent != nil {
				st.Sent = *sj.Sent
			}
			for _, pj := range sj.Params {
				var sym smt.Expr // nil: a concrete-only parameter
				if pj.Sym != nil {
					if sym, err = decodeExpr(pj.Sym); err != nil {
						return err
					}
				}
				d, err := decodeDatum(pj.Concrete)
				if err != nil {
					return err
				}
				st.Params = append(st.Params, Param{Sym: sym, Concrete: d})
			}
			if sj.Res != nil {
				res := &Result{Cols: sj.Res.Cols, Empty: sj.Res.Empty}
				for _, row := range sj.Res.Sym {
					if len(row) != len(res.Cols) {
						return fmt.Errorf("trace: result sym row has %d cells for %d columns", len(row), len(res.Cols))
					}
					var r []smt.Var
					for _, ej := range row {
						e, err := decodeExpr(ej)
						if err != nil {
							return err
						}
						v, ok := e.(smt.Var)
						if !ok {
							return fmt.Errorf("trace: result alias is not a variable: %v", e)
						}
						r = append(r, v)
					}
					res.Sym = append(res.Sym, r)
				}
				st.Res = res
			}
			txn.Stmts = append(txn.Stmts, st)
		}
		tr.Txns = append(tr.Txns, txn)
	}
	for _, pj := range in.PathConds {
		cond, err := decodeSorted(pj.Cond, "path condition", smt.SortBool)
		if err != nil {
			return err
		}
		tr.PathConds = append(tr.PathConds, PathCond{AfterStmt: pj.AfterStmt, Cond: cond})
	}
	return nil
}
