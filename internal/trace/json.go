package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"strconv"

	"weseer/internal/minidb"
	"weseer/internal/smt"
)

// JSON serialization lets the CLI split collection ("weseer collect")
// from analysis ("weseer analyze"): traces are written to disk and read
// back with full symbolic structure. MarshalJSON writes through the wire
// structs below with encoding/json; read.go reads the bytes back by hand
// and converts with the decoders here.

// ---------------------------------------------------------------------------
// smt.Expr codec

type exprJSON struct {
	K    string      `json:"k"`
	V    string      `json:"v,omitempty"`
	B    bool        `json:"b,omitempty"`
	Name string      `json:"name,omitempty"`
	Sort smt.Sort    `json:"sort,omitempty"`
	Op   uint8       `json:"op,omitempty"`
	L    *exprJSON   `json:"l,omitempty"`
	R    *exprJSON   `json:"r,omitempty"`
	Xs   []*exprJSON `json:"xs,omitempty"`
	Conj bool        `json:"conj,omitempty"`
	Arr  *arrJSON    `json:"arr,omitempty"`
	Key  *exprJSON   `json:"key,omitempty"`
}

type arrJSON struct {
	ID      string      `json:"id"`
	KeySort smt.Sort    `json:"keysort"`
	Stores  []storeJSON `json:"stores,omitempty"` // root-first
}

type storeJSON struct {
	Key *exprJSON `json:"key"`
	Val bool      `json:"val"`
}

func encodeExpr(e smt.Expr) *exprJSON {
	if e == nil {
		return nil
	}
	switch t := e.(type) {
	case smt.BoolConst:
		return &exprJSON{K: "bool", B: t.B}
	case smt.IntConst:
		return &exprJSON{K: "int", V: strconv.FormatInt(t.V, 10)}
	case smt.RealConst:
		return &exprJSON{K: "real", V: t.V.RatString()}
	case smt.StrConst:
		return &exprJSON{K: "str", V: t.S}
	case smt.Var:
		return &exprJSON{K: "var", Name: t.Name, Sort: t.S}
	case *smt.Arith:
		return &exprJSON{K: "arith", Op: uint8(t.Op), L: encodeExpr(t.L), R: encodeExpr(t.R), Sort: t.S}
	case *smt.Cmp:
		return &exprJSON{K: "cmp", Op: uint8(t.Op), L: encodeExpr(t.L), R: encodeExpr(t.R)}
	case *smt.NAry:
		out := &exprJSON{K: "nary", Conj: t.Conj}
		for _, x := range t.Xs {
			out.Xs = append(out.Xs, encodeExpr(x))
		}
		return out
	case smt.Not:
		return &exprJSON{K: "not", L: encodeExpr(t.X)}
	case *smt.Select:
		return &exprJSON{K: "sel", Arr: encodeArr(t.Arr), Key: encodeExpr(t.Key)}
	}
	panic(fmt.Sprintf("trace: cannot encode expr %T", e))
}

func encodeArr(a *smt.Array) *arrJSON {
	var chain []*smt.Array
	for cur := a; cur != nil; cur = cur.Parent {
		chain = append(chain, cur)
	}
	root := chain[len(chain)-1]
	out := &arrJSON{ID: root.ID, KeySort: root.KeySort}
	for i := len(chain) - 2; i >= 0; i-- {
		out.Stores = append(out.Stores, storeJSON{Key: encodeExpr(chain[i].StoreKey), Val: chain[i].StoreVal})
	}
	return out
}

// decodeExpr rebuilds an expression through the smt constructors, after
// checking what they would otherwise panic on: missing operands, unknown
// sorts and operators, non-numeric arithmetic, a product of two
// non-constants, comparisons across sorts, and non-Boolean connective
// operands. Malformed input is an error, never a panic.
func decodeExpr(j *exprJSON) (smt.Expr, error) {
	if j == nil {
		return nil, errMissingOperand
	}
	switch j.K {
	case "bool":
		return smt.Bool(j.B), nil
	case "int":
		v, err := strconv.ParseInt(j.V, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: bad int %q", j.V)
		}
		return smt.Int(v), nil
	case "real":
		r, ok := new(big.Rat).SetString(j.V)
		if !ok {
			return nil, fmt.Errorf("trace: bad rational %q", j.V)
		}
		return smt.RealFromRat(r), nil
	case "str":
		return smt.Str(j.V), nil
	case "var":
		if j.Sort > smt.SortString {
			return nil, fmt.Errorf("trace: variable %s has unknown sort %d", j.Name, j.Sort)
		}
		return smt.NewVar(j.Name, j.Sort), nil
	case "arith":
		op := smt.ArithOp(j.Op)
		if op > smt.OpNeg {
			return nil, fmt.Errorf("trace: bad arith op %d", j.Op)
		}
		l, err := decodeSorted(j.L, "arithmetic", smt.SortInt, smt.SortReal)
		if err != nil {
			return nil, err
		}
		if op == smt.OpNeg {
			return smt.Neg(l), nil
		}
		r, err := decodeSorted(j.R, "arithmetic", smt.SortInt, smt.SortReal)
		switch {
		case err != nil:
			return nil, err
		case op == smt.OpAdd:
			return smt.Add(l, r), nil
		case op == smt.OpSub:
			return smt.Sub(l, r), nil
		case !isNumConst(l) && !isNumConst(r):
			return nil, fmt.Errorf("trace: nonlinear product %s * %s", l, r)
		}
		return smt.Mul(l, r), nil
	case "cmp":
		op := smt.CmpOp(j.Op)
		if op > smt.GE {
			return nil, fmt.Errorf("trace: bad comparison op %d", j.Op)
		}
		l, err := decodeExpr(j.L)
		if err != nil {
			return nil, err
		}
		r, err := decodeExpr(j.R)
		if err != nil {
			return nil, err
		}
		numeric := func(s smt.Sort) bool { return s == smt.SortInt || s == smt.SortReal }
		if ls, rs := l.Sort(), r.Sort(); !(numeric(ls) && numeric(rs)) && (ls != rs || op > smt.NE) {
			return nil, fmt.Errorf("trace: comparison %s %s %s of sorts %s and %s", l, op, r, ls, rs)
		}
		return smt.Compare(op, l, r), nil
	case "nary":
		xs := make([]smt.Expr, 0, len(j.Xs))
		for _, x := range j.Xs {
			e, err := decodeSorted(x, "connective", smt.SortBool)
			if err != nil {
				return nil, err
			}
			xs = append(xs, e)
		}
		if j.Conj {
			return smt.And(xs...), nil
		}
		return smt.Or(xs...), nil
	case "not":
		x, err := decodeSorted(j.L, "negation", smt.SortBool)
		if err != nil {
			return nil, err
		}
		return smt.Negate(x), nil
	case "sel":
		arr, err := decodeArr(j.Arr)
		if err != nil {
			return nil, err
		}
		key, err := decodeSorted(j.Key, "array read", arr.KeySort)
		if err != nil {
			return nil, err
		}
		return smt.Read(arr, key), nil
	}
	return nil, fmt.Errorf("trace: unknown expr kind %q", j.K)
}

var errMissingOperand = errors.New("trace: missing expression operand")

// decodeSorted decodes an operand of role that must have one of sorts.
func decodeSorted(j *exprJSON, role string, sorts ...smt.Sort) (smt.Expr, error) {
	e, err := decodeExpr(j)
	if err != nil {
		return nil, err
	}
	return e, checkSort(e, role, sorts...)
}

// checkSort checks that an operand of role has one of sorts.
func checkSort(e smt.Expr, role string, sorts ...smt.Sort) error {
	if !slices.Contains(sorts, e.Sort()) {
		return fmt.Errorf("trace: %s operand %s has sort %s", role, e, e.Sort())
	}
	return nil
}

func isNumConst(e smt.Expr) bool {
	switch e.(type) {
	case smt.IntConst, smt.RealConst:
		return true
	}
	return false
}

func decodeArr(j *arrJSON) (*smt.Array, error) {
	if j == nil {
		return nil, errors.New("trace: array read without an array")
	}
	if j.KeySort > smt.SortString {
		return nil, fmt.Errorf("trace: array %s has unknown key sort %d", j.ID, j.KeySort)
	}
	a := smt.NewArray(j.ID, j.KeySort)
	for _, s := range j.Stores {
		k, err := decodeSorted(s.Key, "array store", j.KeySort)
		if err != nil {
			return nil, err
		}
		a = a.Store(k, s.Val)
	}
	return a, nil
}

// ---------------------------------------------------------------------------
// Datum codec

type datumJSON struct {
	Null bool   `json:"null,omitempty"`
	Kind uint8  `json:"kind"`
	V    string `json:"v,omitempty"`
}

func encodeDatum(d minidb.Datum) datumJSON {
	j := datumJSON{Null: d.Null, Kind: uint8(d.Kind)}
	if d.Null {
		return j
	}
	switch d.Kind {
	case minidb.KInt:
		j.V = strconv.FormatInt(d.I, 10)
	case minidb.KReal:
		j.V = d.R.RatString()
	case minidb.KStr:
		j.V = d.S
	}
	return j
}

func decodeDatum(j datumJSON) (minidb.Datum, error) {
	if j.Null {
		return minidb.NullDatum(minidb.Kind(j.Kind)), nil
	}
	switch minidb.Kind(j.Kind) {
	case minidb.KInt:
		v, err := strconv.ParseInt(j.V, 10, 64)
		if err != nil {
			return minidb.Datum{}, fmt.Errorf("trace: bad int datum %q", j.V)
		}
		return minidb.I64(v), nil
	case minidb.KReal:
		r, ok := new(big.Rat).SetString(j.V)
		if !ok {
			return minidb.Datum{}, fmt.Errorf("trace: bad real datum %q", j.V)
		}
		return minidb.Real(r), nil
	case minidb.KStr:
		return minidb.Str(j.V), nil
	}
	return minidb.Datum{}, fmt.Errorf("trace: bad datum kind %d", j.Kind)
}

// ---------------------------------------------------------------------------
// Trace codec

type traceJSON struct {
	API       string      `json:"api"`
	Inputs    []inputJSON `json:"inputs"`
	Txns      []txnJSON   `json:"txns"`
	PathConds []pcJSON    `json:"path_conds"`
	Stats     Stats       `json:"stats"`
}

// inputJSON is an Input on the wire: the concrete value as its string form.
type inputJSON struct {
	Name     string   `json:"name"`
	Sort     smt.Sort `json:"sort"`
	Concrete string   `json:"concrete"`
}

func decodeInput(j inputJSON) (Input, error) {
	in := Input{Name: j.Name, Sort: j.Sort, Concrete: smt.Value{S: j.Sort}}
	var err error
	switch c := &in.Concrete; j.Sort {
	case smt.SortBool:
		c.B, err = strconv.ParseBool(j.Concrete)
	case smt.SortInt:
		c.I, err = strconv.ParseInt(j.Concrete, 10, 64)
	case smt.SortReal:
		if c.R, _ = new(big.Rat).SetString(j.Concrete); c.R == nil {
			err = strconv.ErrSyntax
		}
	case smt.SortString:
		c.Str, err = strconv.Unquote(j.Concrete)
	default:
		err = strconv.ErrSyntax
	}
	if err != nil {
		return in, fmt.Errorf("trace: bad %v input %s = %q", j.Sort, j.Name, j.Concrete)
	}
	return in, nil
}

type txnJSON struct {
	ID        int        `json:"id"`
	Committed bool       `json:"committed"`
	Stmts     []stmtJSON `json:"stmts"`
}

type stmtJSON struct {
	Seq     int         `json:"seq"`
	SQL     string      `json:"sql"`
	Params  []paramJSON `json:"params,omitempty"`
	Res     *resJSON    `json:"res,omitempty"`
	Plan    []PlanStep  `json:"plan,omitempty"`
	Trigger CodeLoc     `json:"trigger"`
	Sent    *CodeLoc    `json:"sent,omitempty"` // write-behind statements only
}

type paramJSON struct {
	Sym      *exprJSON `json:"sym"`
	Concrete datumJSON `json:"concrete"`
}

type resJSON struct {
	Cols  []string      `json:"cols"`
	Sym   [][]*exprJSON `json:"sym"`
	Empty bool          `json:"empty"`
}

type pcJSON struct {
	AfterStmt int       `json:"after"`
	Cond      *exprJSON `json:"cond"`
}

// MarshalJSON implements json.Marshaler.
func (tr *Trace) MarshalJSON() ([]byte, error) {
	out := traceJSON{API: tr.API, Stats: tr.Stats}
	for _, in := range tr.Inputs {
		out.Inputs = append(out.Inputs, inputJSON{Name: in.Name, Sort: in.Sort, Concrete: in.Concrete.String()})
	}
	for _, txn := range tr.Txns {
		tj := txnJSON{ID: txn.ID, Committed: txn.Committed}
		for _, st := range txn.Stmts {
			sj := stmtJSON{Seq: st.Seq, SQL: st.SQL, Plan: st.Plan, Trigger: st.Trigger}
			if len(st.Sent.Frames) > 0 {
				sj.Sent = &st.Sent
			}
			for _, p := range st.Params {
				sj.Params = append(sj.Params, paramJSON{Sym: encodeExpr(p.Sym), Concrete: encodeDatum(p.Concrete)})
			}
			if st.Res != nil {
				rj := &resJSON{Cols: st.Res.Cols, Empty: st.Res.Empty}
				for _, row := range st.Res.Sym {
					var r []*exprJSON
					for _, v := range row {
						r = append(r, encodeExpr(v))
					}
					rj.Sym = append(rj.Sym, r)
				}
				sj.Res = rj
			}
			tj.Stmts = append(tj.Stmts, sj)
		}
		out.Txns = append(out.Txns, tj)
	}
	for _, pc := range tr.PathConds {
		out.PathConds = append(out.PathConds, pcJSON{AfterStmt: pc.AfterStmt, Cond: encodeExpr(pc.Cond)})
	}
	return json.Marshal(out)
}
