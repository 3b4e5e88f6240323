package history

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func encodedTestRecords() [][]byte {
	at := time.Date(2026, 8, 8, 12, 1, 0, 0, time.UTC)
	full := testEvents()[0]
	full.Tables = []string{"Order", "Sku"}
	full.Seen, full.FirstSeen, full.LastSeen = 3, at, at.Add(time.Hour)
	return [][]byte{
		appendRecord(nil, record{kind: recEvent, e: &full}),
		appendRecord(nil, record{kind: recEvent, e: &Event{Fingerprint: "bare"}}), // empty strings, zero tables, zero times
		appendRecord(nil, record{kind: recEvent, e: &Event{Fingerprint: "old", Count: -2, Seen: -1,
			FirstSeen: time.Date(1969, 7, 20, 20, 17, 40, 999999999, time.UTC)}}),
		appendRecord(nil, record{kind: recTouch, fp: "00000000000000a1", at: at}),
		appendRecord(nil, record{kind: recTouch}),
	}
}

// genRecord builds a record out of fuzz input: every field takes its
// length or value from the next bytes, so the fuzzer reaches empty strings,
// zero tables and times on either side of 1970 and of year 1.
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
	when := func() time.Time {
		if next()&3 == 0 {
			return time.Time{}
		}
		return time.Unix(num(), int64(uint64(num())%1e9)).UTC()
	}
	if next()&1 == 1 {
		return record{kind: recTouch, fp: str(), at: when()}
	}
	e := &Event{Fingerprint: str(), App: str(), Class: str(), APIs: [2]string{str(), str()}}
	for n := next() % 5; n > 0; n-- {
		e.Tables = append(e.Tables, str())
	}
	for i := range e.Txns {
		e.Txns[i] = TxnLock{API: str(), HoldsSQL: str(), HoldsAt: str(), WaitsSQL: str(), WaitsAt: str()}
	}
	e.Count, e.Seen = int(num()), int(num())
	e.FirstSeen, e.LastSeen = when(), when()
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
	// Payloads of the JSON encoding the store once wrote: '{' is no kind.
	f.Add([]byte(`{"t":"touch","fp":"00000000000000a1","at":"2026-08-08T12:01:00Z"}`))
	f.Add([]byte(`{"t":"event","e":{"fingerprint":"x","apis":["A","B"],"tables":["T"]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if rec, err := decodeRecord(data); err == nil {
			if rec.kind == recEvent && len(rec.e.Tables) > len(data) {
				t.Fatalf("%d tables out of %d bytes", len(rec.e.Tables), len(data))
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
		"overlong varint":  append([]byte{recTouch, 0x81, 0x00, 'x'}, 0, 0),
		"nanoseconds ≥ 1s": binary.AppendUvarint([]byte{recTouch, 0, 0}, 1e9),
	} {
		if _, err := decodeRecord(bad); err == nil {
			t.Errorf("%s: accepted %x", name, bad)
		}
	}
}

// TestDecodeRecordHostileCount: a table count the payload cannot hold is
// refused before anything is sized from it.
func TestDecodeRecordHostileCount(t *testing.T) {
	raw := binary.AppendUvarint([]byte{recEvent, 0, 0, 0, 0, 0}, 1<<28) // 4 GiB of string headers
	raw = append(raw, bytes.Repeat([]byte{0}, 64)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeRecord(raw)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("accepted a table count larger than the payload")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding %d hostile bytes allocated %d", len(raw), grew)
	}
}
