package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"slices"
	"strings"
	"testing"

	"weseer/internal/minidb"
	"weseer/internal/smt"
	"weseer/internal/sqlast"
)

func sampleTrace() *Trace {
	orderID := smt.NewVar("order_id", smt.SortInt)
	resVar := smt.Var{Name: "res0.row0.p.ID", S: smt.SortInt}
	arr := smt.NewArray("cache@1", smt.SortInt).Store(orderID, true)
	return &Trace{
		API: "Checkout",
		Inputs: []Input{
			{Name: "order_id", Sort: smt.SortInt, Concrete: smt.IntValue(7)},
			{Name: "coupon", Sort: smt.SortString, Concrete: smt.StrValue(`10% "off"`)},
			{Name: "rate", Sort: smt.SortReal, Concrete: smt.RealValue(big.NewRat(-3, 4))},
			{Name: "gift", Sort: smt.SortBool, Concrete: smt.BoolValue(true)},
		},
		Txns: []*Txn{{
			ID:        1,
			Committed: true,
			Stmts: []*Stmt{
				{
					Seq:    0,
					SQL:    `SELECT * FROM Product p WHERE p.ID = ?`,
					Parsed: sqlast.MustParse(`SELECT * FROM Product p WHERE p.ID = ?`),
					Params: []Param{{Sym: orderID, Concrete: minidb.I64(7)}},
					Res: &Result{
						Cols: []string{"p.ID", "p.QTY"},
						Sym:  [][]smt.Var{{resVar, {Name: "res0.row0.p.QTY", S: smt.SortInt}}},
					},
					Trigger: CodeLoc{Frames: []Frame{{Func: "app.Checkout", File: "checkout.go", Line: 42}}},
					Sent:    CodeLoc{Frames: []Frame{{Func: "app.Checkout", File: "checkout.go", Line: 99}}},
				},
				{
					Seq:    1,
					SQL:    `UPDATE Product SET QTY = ? WHERE ID = ?`,
					Parsed: sqlast.MustParse(`UPDATE Product SET QTY = ? WHERE ID = ?`),
					Params: []Param{
						{Sym: smt.Sub(resVar, smt.Int(1)), Concrete: minidb.I64(2)},
						{Sym: orderID, Concrete: minidb.I64(7)},
					},
				},
			},
		}},
		PathConds: []PathCond{
			{AfterStmt: 0, Cond: smt.Ne(orderID, smt.Int(-1))},
			{AfterStmt: 1, Cond: smt.Read(arr, orderID)},
			{AfterStmt: 2, Cond: smt.Gt(smt.NewVar("res0.row0.p.QTY", smt.SortInt), smt.Int(0))},
		},
		Stats: Stats{PathConds: 3, PrunedConds: 120, Statements: 2},
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := sampleTrace()
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.API != tr.API || len(back.Txns) != 1 || len(back.PathConds) != 3 {
		t.Fatalf("structure lost: %+v", back)
	}
	if back.Stats != tr.Stats {
		t.Errorf("stats = %+v", back.Stats)
	}
	if !reflect.DeepEqual(back.Inputs, tr.Inputs) {
		t.Errorf("inputs = %+v, want %+v", back.Inputs, tr.Inputs)
	}
	s0 := back.Txns[0].Stmts[0]
	if s0.Parsed == nil || s0.Parsed.Kind() != sqlast.KindSelect {
		t.Error("statement not re-parsed")
	}
	if s0.Params[0].Sym.String() != "order_id" || s0.Params[0].Concrete.I != 7 {
		t.Errorf("param = %v / %v", s0.Params[0].Sym, s0.Params[0].Concrete)
	}
	if s0.Res.Sym[0][1].Name != "res0.row0.p.QTY" {
		t.Errorf("result alias = %v", s0.Res.Sym[0][1])
	}
	if s0.Trigger.Top().Line != 42 {
		t.Errorf("trigger = %v", s0.Trigger)
	}
	if s0.Sent.Top().Line != 99 || !s0.Deferred() {
		t.Errorf("sent = %v", s0.Sent)
	}
	s1 := back.Txns[0].Stmts[1]
	if s1.Params[0].Sym.String() != "(res0.row0.p.ID - 1)" {
		t.Errorf("arith param = %v", s1.Params[0].Sym)
	}
	// A statement sent where it was triggered has a zero Sent: no key on
	// the wire, and zero again once read.
	if n := strings.Count(string(data), `"sent":`); n != 1 {
		t.Errorf("%d sent keys for one write-behind statement:\n%s", n, data)
	}
	if s1.Sent.Frames != nil || s1.Deferred() {
		t.Errorf("zero sent decoded as %#v", s1.Sent)
	}
	// The array-read path condition survives with its store chain.
	if got := back.PathConds[1].Cond.String(); got != tr.PathConds[1].Cond.String() {
		t.Errorf("array PC = %s, want %s", got, tr.PathConds[1].Cond)
	}
}

// TestJSONRejectsGarbageIntegers pins that an integer constant or datum
// must be a whole decimal literal: "12abc" used to decode as 12.
func TestJSONRejectsGarbageIntegers(t *testing.T) {
	data, err := json.Marshal(sampleTrace())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ good, bad string }{
		{`{"k":"int","v":"-1"}`, `{"k":"int","v":"-1abc"}`},
		{`{"k":"int","v":"-1"}`, `{"k":"int","v":"7 8"}`},
		{`{"k":"int","v":"-1"}`, `{"k":"int","v":""}`},
		{`{"kind":0,"v":"2"}`, `{"kind":0,"v":"2x"}`},
	} {
		if !strings.Contains(string(data), c.good) {
			t.Fatalf("sample trace no longer encodes %s:\n%s", c.good, data)
		}
		bad := strings.Replace(string(data), c.good, c.bad, 1)
		err := json.Unmarshal([]byte(bad), new(Trace))
		if err == nil || !strings.Contains(err.Error(), "trace: bad int") {
			t.Errorf("%s: got error %v, want a trace: error", c.bad, err)
		}
	}
}

// TestJSONRejectsMalformedExprs pins that a path condition the smt
// constructors would panic on is a decoding error instead; the first three
// used to panic json.Unmarshal.
func TestJSONRejectsMalformedExprs(t *testing.T) {
	for name, cond := range map[string]string{
		"read without array":     `{"k":"sel"}`,
		"arith without operands": `{"k":"arith"}`,
		"arith on a bool":        `{"k":"arith","op":0,"l":{"k":"bool","b":true},"r":{"k":"int","v":"1"}}`,
		"nonlinear product": `{"k":"cmp","op":0,"r":{"k":"int","v":"1"},` +
			`"l":{"k":"arith","op":2,"l":{"k":"var","name":"x","sort":1},"r":{"k":"var","name":"y","sort":1}}}`,
		"unknown arith op":       `{"k":"cmp","op":0,"l":{"k":"arith","op":7,"l":{"k":"int","v":"1"}},"r":{"k":"int","v":"1"}}`,
		"unknown sort":           `{"k":"var","name":"b","sort":9}`,
		"unknown comparison":     `{"k":"cmp","op":9,"l":{"k":"int","v":"1"},"r":{"k":"int","v":"1"}}`,
		"ordered strings":        `{"k":"cmp","op":2,"l":{"k":"str","v":"a"},"r":{"k":"str","v":"b"}}`,
		"int against string":     `{"k":"cmp","op":0,"l":{"k":"int","v":"1"},"r":{"k":"str","v":"b"}}`,
		"connective over an int": `{"k":"nary","conj":true,"xs":[{"k":"int","v":"1"}]}`,
		"missing operand":        `{"k":"nary","xs":[null]}`,
		"negated int":            `{"k":"not","l":{"k":"int","v":"1"}}`,
		"store key sort":         `{"k":"sel","arr":{"id":"m","keysort":1,"stores":[{"key":{"k":"str","v":"a"},"val":true}]},"key":{"k":"int","v":"1"}}`,
		"read key sort":          `{"k":"sel","arr":{"id":"m","keysort":1},"key":{"k":"str","v":"a"}}`,
		"unknown key sort":       `{"k":"sel","arr":{"id":"m","keysort":7},"key":{"k":"str","v":"a"}}`,
		"int condition":          `{"k":"int","v":"1"}`,
		"missing condition":      `null`,
	} {
		body := `[{"api":"x","txns":[],"path_conds":[{"after":0,"cond":` + cond + `}]}]`
		var trs []*Trace
		if err := json.Unmarshal([]byte(body), &trs); err == nil || !strings.HasPrefix(err.Error(), "trace: ") {
			t.Errorf("%s: got error %v, want a trace: error", name, err)
		}
		if _, err := Decode([]byte(body)); err == nil || !strings.HasPrefix(err.Error(), "trace: ") {
			t.Errorf("%s: Decode: got error %v, want a trace: error", name, err)
		}
	}
	body := `[{"api":"x","inputs":[{"name":"i","sort":9,"concrete":"1"}],"txns":[],"path_conds":[]}]`
	if err := json.Unmarshal([]byte(body), new([]*Trace)); err == nil || !strings.HasPrefix(err.Error(), "trace: ") {
		t.Errorf("input of unknown sort: got error %v, want a trace: error", err)
	}
}

// FuzzTraceJSON feeds the trace decoders arbitrary bytes: they must return
// an error rather than panic, and Decode — and json.Unmarshal into
// []*Trace, which calls UnmarshalJSON per element — must accept exactly
// what the reflective oracle accepts, to equal traces, except that they
// refuse an object naming one field twice, which the oracle merges: a
// batch only the oracle accepts must repeat a key. (The reader may meet
// another error in the first value before it meets the repeat.) A batch
// Decode accepts must re-encode stably: decoding its encoding and encoding
// again gives the same bytes. The checked-in seeds are the three bodies
// that used to panic, a null trace, a small gen: collection in the older
// form (a "txn" per statement, result "concrete" rows, every statement's
// "sent") and two gen: traces without those keys; fuzzSeeds
// adds key matching, integer fields, string repair, trailing bytes, nulls,
// repeated keys and the malformed shapes the analyzer used to crash on.
func FuzzTraceJSON(f *testing.F) {
	sample, err := json.Marshal([]*Trace{sampleTrace()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample)
	for _, seed := range fuzzSeeds(string(sample)) {
		f.Add([]byte(seed))
	}
	encode := func(t *testing.T, trs []*Trace) []byte {
		data, err := json.Marshal(trs)
		if err != nil {
			t.Fatalf("encoding a decoded batch: %v", err)
		}
		return data
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := oracleDecode(data)
		var each []*Trace
		eachErr := json.Unmarshal(data, &each)
		if eachErr == nil && slices.Contains(each, nil) {
			eachErr = errors.New("a null trace")
		}
		trs, err := Decode(data)
		for _, got := range []struct {
			name string
			trs  []*Trace
			err  error
		}{{"Decode", trs, err}, {"json.Unmarshal", each, eachErr}} {
			if got.err != nil && wantErr == nil && repeatsKey(data) {
				continue
			}
			if (got.err == nil) != (wantErr == nil) {
				t.Fatalf("%s: %v; oracle: %v", got.name, got.err, wantErr)
			}
			if got.err == nil && !reflect.DeepEqual(got.trs, want) {
				t.Fatalf("%s and the oracle disagree:\n got  %s\n want %s", got.name, encode(t, got.trs), encode(t, want))
			}
		}
		if err != nil {
			return
		}
		once := encode(t, trs)
		back, err := Decode(once)
		if err != nil {
			t.Fatalf("decoding an encoded batch: %v\n%s", err, once)
		}
		if twice := encode(t, back); !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not stable:\n once  %s\n twice %s", once, twice)
		}
	})
}

// fuzzSeeds derives FuzzTraceJSON's edge cases from sample, an encoded
// one-trace batch.
func fuzzSeeds(sample string) []string {
	edit := func(old, new string) string {
		if !strings.Contains(sample, old) {
			panic("fuzz seed: the sample trace no longer encodes " + old)
		}
		return strings.Replace(sample, old, new, 1)
	}
	const pc = `[{"api":"x","txns":[],"path_conds":[{"after":0,"cond":%s}]}]`
	return []string{
		// Keys: case-folded, escaped, the Kelvin sign folding to "k", and
		// unknown keys holding every kind of JSON value.
		edit(`"api"`, `"API"`),
		edit(`"seq"`, `"Seq"`),
		edit(`"sql"`, `"\u0073ql"`),
		fmt.Sprintf(pc, `{"\u212a":"bool","B":true}`),
		edit(`"api"`, `"x1":"s","x2":-1.5e3,"x3":true,"x4":false,"x5":null,"x6":{"a":[{}]},"x7":[1,"b",null],"api"`),
		// Integers: above a uint8, and 1.0 and 1e2 in integer fields.
		fmt.Sprintf(pc, `{"k":"var","name":"b","sort":256}`),
		fmt.Sprintf(pc, `{"k":"cmp","op":300,"l":{"k":"int","v":"1"},"r":{"k":"int","v":"1"}}`),
		edit(`"kind":0`, `"kind":256`),
		edit(`"seq":0`, `"seq":1.0`),
		fmt.Sprintf(`[{"api":"x","path_conds":[{"after":1e2,"cond":%s}]}]`, `{"k":"bool","b":true}`),
		// Strings: invalid UTF-8 and a lone surrogate, both U+FFFD.
		edit(`"Checkout"`, "\"Check\xffout\xc3\""),
		edit(`"Checkout"`, `"Check\ud800out\ud800\u0041"`),
		// Structure: trailing bytes, nested nulls, a repeated key.
		sample + ` x`,
		sample + `]`,
		`[{"api":null,"inputs":null,"txns":[null,{"id":null,"stmts":null}],"path_conds":null,"stats":null}]`,
		edit(`"trigger":{"frames":[`, `"plan":[null,{"alias":null}],"trigger":{"frames":[null,`),
		edit(`"api":"Checkout"`, `"api":"Checkout","API":"again"`),
		`[{"api":"x","inputs":[],"txns":[{"id":1,"stmts":[{"sql":"SELECT * FROM T","params":[],` +
			`"res":{"cols":[],"sym":[[]],"concrete":[]},"plan":[],"trigger":{"frames":[]},"sent":{}}]}],"path_conds":[]}]`,
		// The shapes the analyzer used to crash on: a result row wider
		// than its columns, a table no schema has, and a parameter whose
		// sort is not its column's.
		edit(`"cols":["p.ID","p.QTY"]`, `"cols":["p.ID"]`),
		edit(`UPDATE Product`, `UPDATE Nowhere`),
		edit(`{"k":"var","name":"order_id","sort":1}`, `{"k":"var","name":"order_id","sort":3}`),
	}
}

// repeatsKey reports whether some object in data, which may be malformed,
// names a key twice under encoding/json's case folding.
func repeatsKey(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	var value func() bool
	value = func() bool {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch tok {
		case json.Delim('{'):
			var keys []string
			for dec.More() {
				tok, err := dec.Token()
				if err != nil {
					return false
				}
				key := tok.(string)
				for _, k := range keys {
					if strings.EqualFold(k, key) {
						return true
					}
				}
				keys = append(keys, key)
				if value() {
					return true
				}
			}
			dec.Token()
		case json.Delim('['):
			for dec.More() {
				if value() {
					return true
				}
			}
			dec.Token()
		}
		return false
	}
	return value()
}

// TestDecodeRejectsRepeatedKeys pins the reader's one departure from
// encoding/json: a field named twice in one object, however its key is
// spelled, is an error rather than a merge; an unknown key may repeat.
func TestDecodeRejectsRepeatedKeys(t *testing.T) {
	for _, body := range []string{
		`[{"api":"a","api":"b"}]`,
		`[{"api":"a","API":"b"}]`,
		`[{"api":"a","\u0061pi":"b"}]`,
		`[{"txns":[{"id":1,"stmts":[],"ID":2}]}]`,
	} {
		if _, err := oracleDecode([]byte(body)); err != nil {
			t.Fatalf("oracle rejects %s: %v", body, err)
		}
		if _, err := Decode([]byte(body)); !errors.Is(err, errRepeatedKey) {
			t.Errorf("Decode(%s): got %v, want a repeated-key error", body, err)
		}
		if !repeatsKey([]byte(body)) {
			t.Errorf("repeatsKey(%s) = false", body)
		}
	}
	if _, err := Decode([]byte(`[{"x":1,"x":2,"X":[]}]`)); err != nil {
		t.Errorf("a repeated unknown key: %v", err)
	}
}

// TestDecodeRejectsNullTrace: json.Unmarshal into []*Trace takes a null
// element for a nil trace, which the analyzer would dereference; Decode
// refuses it.
func TestDecodeRejectsNullTrace(t *testing.T) {
	sample, err := json.Marshal(sampleTrace())
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{`[null]`, `[` + string(sample) + `,null]`} {
		if trs, err := Decode([]byte(body)); err == nil || !strings.HasPrefix(err.Error(), "trace: ") {
			t.Errorf("Decode(%.40s…) = %d traces, error %v; want a trace: error", body, len(trs), err)
		}
	}
	for body, want := range map[string]int{`null`: 0, `[]`: 0, `[` + string(sample) + `]`: 1} {
		if trs, err := Decode([]byte(body)); err != nil || len(trs) != want {
			t.Errorf("Decode(%.40s…) = %d traces, error %v; want %d", body, len(trs), err, want)
		}
	}
}

func TestCodeLocFramesNotAliasedByJSON(t *testing.T) {
	// The collector hands every event at one call site the same Frames
	// slice. Sending a trace through JSON must leave that slice as it was,
	// and a decoded trace must own its frames.
	shared := []Frame{{Func: "app.Checkout", File: "checkout.go", Line: 42}, {Func: "app.main", File: "main.go", Line: 7}}
	want := append([]Frame(nil), shared...)
	tr := sampleTrace()
	for _, st := range tr.Txns[0].Stmts {
		st.Trigger, st.Sent = CodeLoc{Frames: shared}, CodeLoc{Frames: shared}
	}

	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for _, st := range back.Txns[0].Stmts {
		for _, loc := range []CodeLoc{st.Trigger, st.Sent} {
			if !reflect.DeepEqual(loc.Frames, want) {
				t.Fatalf("frames lost in the round trip: %v", loc)
			}
			if &loc.Frames[0] == &shared[0] {
				t.Fatal("decoded trace aliases the collector's shared frames")
			}
			loc.Frames[0].Line = -1 // a decoded trace's frames are its own
		}
	}
	if !reflect.DeepEqual(shared, want) {
		t.Errorf("shared frames modified: %v", shared)
	}
}

func TestTxnTables(t *testing.T) {
	tr := sampleTrace()
	acc, wr := tr.Txns[0].Tables()
	if !acc["Product"] || !wr["Product"] {
		t.Errorf("tables = %v / %v", acc, wr)
	}
	if len(wr) != 1 {
		t.Errorf("written = %v", wr)
	}
}

func TestAllStmtsSorted(t *testing.T) {
	tr := &Trace{Txns: []*Txn{
		{ID: 1, Stmts: []*Stmt{{Seq: 2, SQL: "c", Parsed: sqlast.MustParse(`DELETE FROM T WHERE a = 1`)}}},
		{ID: 2, Stmts: []*Stmt{{Seq: 0, SQL: "a", Parsed: sqlast.MustParse(`DELETE FROM T WHERE a = 1`)}, {Seq: 1, SQL: "b", Parsed: sqlast.MustParse(`DELETE FROM T WHERE a = 1`)}}},
	}}
	all := tr.AllStmts()
	for i, s := range all {
		if s.Seq != i {
			t.Errorf("pos %d seq %d", i, s.Seq)
		}
	}
}

func TestCodeLocString(t *testing.T) {
	var empty CodeLoc
	if empty.String() != "<unknown>" {
		t.Errorf("empty = %s", empty.String())
	}
	loc := CodeLoc{Frames: []Frame{{Func: "f", File: "x.go", Line: 3}, {Func: "g", File: "y.go", Line: 9}}}
	want := "f (x.go:3) <- g (y.go:9)"
	if loc.String() != want {
		t.Errorf("loc = %s", loc.String())
	}
	if loc.Top().Func != "f" {
		t.Errorf("top = %v", loc.Top())
	}
}

func TestIsWrite(t *testing.T) {
	sel := &Stmt{Parsed: sqlast.MustParse(`SELECT * FROM T`)}
	ins := &Stmt{Parsed: sqlast.MustParse(`INSERT INTO T (a) VALUES (1)`)}
	if sel.IsWrite() || !ins.IsWrite() {
		t.Error("IsWrite misclassifies")
	}
}
