package history

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func encodedTestRecords() [][]byte {
	at := time.Date(2026, 8, 8, 12, 1, 0, 0, time.UTC)
	full := &entry{fp: "00000000000000a1", tables: []uint32{4, 300}, count: 4, seen: 3, first: at, last: at.Add(time.Hour)}
	for i := range full.ids {
		full.ids[i] = uint32(i * 37) // one- and two-byte ids
	}
	return [][]byte{
		appendRecord(nil, record{kind: recDef, def: "UPDATE Sku SET qty = ?"}),
		appendRecord(nil, record{kind: recDef}),
		appendRecord(nil, record{kind: recEvent, e: full}),
		appendRecord(nil, record{kind: recEvent, e: &entry{fp: "bare"}}), // id 0 everywhere, zero tables, zero times
		appendRecord(nil, record{kind: recEvent, e: &entry{fp: "old", count: -2, seen: -1,
			first: time.Date(1969, 7, 20, 20, 17, 40, 999999999, time.UTC)}}),
		appendRecord(nil, record{kind: recEvent, e: &entry{fp: "max-id", ids: [numIDs]uint32{math.MaxUint32}}}),
		appendRecord(nil, record{kind: recTouch, ord: 41, at: at}),
		appendRecord(nil, record{kind: recTouch, ord: 1 << 40}),
		appendRecord(nil, record{kind: recTouch}),
	}
}

// genRecord builds a record out of fuzz input: every field takes its
// length or value from the next bytes, so the fuzzer reaches empty strings,
// zero tables, ids of every width and times on either side of 1970 and of
// year 1.
func genRecord(data []byte) record {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	str := func() string {
		n := min(int(next()%24), len(data))
		s := string(data[:n])
		data = data[n:]
		return s
	}
	num := func() int64 {
		var v int64
		for n := next() % 9; n > 0; n-- {
			v = v<<8 | int64(next())
		}
		if next()&1 == 1 {
			v = -v
		}
		return v
	}
	id := func() uint32 { return uint32(num()) }
	when := func() time.Time {
		if next()&3 == 0 {
			return time.Time{}
		}
		return time.Unix(num(), int64(uint64(num())%1e9)).UTC()
	}
	switch next() % 3 {
	case 0:
		return record{kind: recDef, def: str()}
	case 1:
		return record{kind: recTouch, ord: uint64(num()), at: when()}
	}
	e := &entry{fp: str()}
	for i := range e.ids {
		e.ids[i] = id()
	}
	for n := next() % 5; n > 0; n-- {
		e.tables = append(e.tables, id())
	}
	e.count, e.seen = int(num()), int(num())
	e.first, e.last = when(), when()
	return record{kind: recEvent, e: e}
}

// FuzzDecodeRecord feeds the payload decoder arbitrary bytes — it must
// not panic, must not size anything from a count it has not checked
// against the input, and what it accepts must re-encode to the same bytes —
// and, reading the same bytes as a recipe for a record, checks that
// decode(encode(r)) is r.
func FuzzDecodeRecord(f *testing.F) {
	for _, raw := range encodedTestRecords() {
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		f.Add(append(append([]byte{}, raw...), 0))
	}
	f.Add([]byte{})
	f.Add([]byte{recEvent, 0x80, 0x00})                                              // overlong varint
	f.Add(append([]byte{recEvent, 0, 0, 0, 0, 0}, bytes.Repeat([]byte{0xff}, 9)...)) // absurd table count
	f.Add(binary.AppendUvarint([]byte{recEvent, 0}, 1<<32))                          // an id past uint32
	// Payloads of the JSON encoding the store once wrote: '{' is no kind.
	f.Add([]byte(`{"t":"touch","fp":"00000000000000a1","at":"2026-08-08T12:01:00Z"}`))
	f.Add([]byte(`{"t":"event","e":{"fingerprint":"x","apis":["A","B"],"tables":["T"]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if rec, err := decodeRecord(data); err == nil {
			if rec.kind == recEvent && len(rec.e.tables) > len(data) {
				t.Fatalf("%d tables out of %d bytes", len(rec.e.tables), len(data))
			}
			if again := appendRecord(nil, rec); !bytes.Equal(again, data) {
				t.Fatalf("accepted payload re-encodes differently:\n in  %x\n out %x", data, again)
			}
		}

		want := genRecord(data)
		raw := appendRecord(nil, want)
		got, err := decodeRecord(raw)
		if err != nil {
			t.Fatalf("decode(encode(%+v)): %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip changed the record:\n got  %+v\n want %+v", got.e, want.e)
		}
	})
}

// TestDecodeRecordRejects pins the malformed payloads the decoder must
// refuse whole: anything short, long, or not in shortest form.
func TestDecodeRecordRejects(t *testing.T) {
	for _, good := range encodedTestRecords() {
		if _, err := decodeRecord(good); err != nil {
			t.Fatalf("good payload %x: %v", good, err)
		}
		for cut := 0; cut < len(good); cut++ {
			if _, err := decodeRecord(good[:cut]); err == nil {
				t.Fatalf("accepted %d of %d bytes of %x", cut, len(good), good)
			}
		}
		if _, err := decodeRecord(append(append([]byte{}, good...), 0)); err == nil {
			t.Fatalf("accepted a trailing byte after %x", good)
		}
	}
	for name, bad := range map[string][]byte{
		"unknown kind":     {9, 0},
		"overlong varint":  append([]byte{recTouch, 0x81, 0x00}, 0, 0),
		"nanoseconds ≥ 1s": binary.AppendUvarint([]byte{recTouch, 0, 0}, 1e9),
		"id past uint32":   binary.AppendUvarint([]byte{recEvent, 0}, 1<<32),
	} {
		if _, err := decodeRecord(bad); err == nil {
			t.Errorf("%s: accepted %x", name, bad)
		}
	}
}

// TestDecodeRecordHostileCount: a table count the payload cannot hold is
// refused before anything is sized from it, and so are an id or a touch
// ordinal past what the store holds, before anything is indexed by them.
func TestDecodeRecordHostileCount(t *testing.T) {
	raw := binary.AppendUvarint([]byte{recEvent, 0, 0, 0, 0, 0}, 1<<28) // 1 GiB of ids
	raw = append(raw, bytes.Repeat([]byte{0}, 64)...)
	hostileID := &entry{fp: "hostile", tables: []uint32{1 << 31}}
	s := newStore()
	for name, apply := range map[string]func() error{
		"table count": func() error { _, err := decodeRecord(raw); return err },
		"id past uint32": func() error {
			_, err := decodeRecord(binary.AppendUvarint([]byte{recEvent, 0}, 1<<32))
			return err
		},
		"id past the dictionary": func() error {
			return s.applyPayload(appendRecord(nil, record{kind: recEvent, e: hostileID}))
		},
		"touch ordinal": func() error {
			return s.applyPayload(appendRecord(nil, record{kind: recTouch, ord: 1 << 62}))
		},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := apply()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: refusing it allocated %d bytes", name, grew)
		}
	}
	if len(s.events) != 0 || len(s.byOrd) != 0 || s.version.Load() != 0 {
		t.Fatal("a refused record changed the store")
	}
}
