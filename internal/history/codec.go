package history

// The WAL payload codec: what goes inside one btree.Log frame. Two record
// shapes, written by hand because a replay decodes every record the store
// has ever appended:
//
//	event: 0x01 | fingerprint | app | class | api0 | api1
//	            | uvarint #tables | table...
//	            | 2 × (api | holds_sql | holds_at | waits_sql | waits_at)
//	            | count | seen | first_seen | last_seen
//	touch: 0x02 | fingerprint | at
//
// A string is its uvarint byte length followed by the bytes; count and
// seen are zig-zag varints; a time is zig-zag varint Unix seconds followed
// by uvarint nanoseconds (< 1e9) and decodes in UTC, so the zero time
// round-trips. Every varint must be in its shortest form and a record must
// use exactly its payload, so a payload that decodes re-encodes to the
// same bytes. Zero tables decode as a nil slice.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Record kinds: the first payload byte.
const (
	recEvent byte = 1
	recTouch byte = 2
)

// record is one decoded WAL payload: recEvent introduces a new
// fingerprint, recTouch re-sights an existing one.
type record struct {
	kind byte
	e    *Event    // recEvent
	fp   string    // recTouch
	at   time.Time // recTouch
}

var errCorruptRecord = errors.New("history: corrupt record")

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

func appendTime(dst []byte, t time.Time) []byte {
	return binary.AppendUvarint(binary.AppendVarint(dst, t.Unix()), uint64(t.Nanosecond()))
}

// appendRecord appends rec's payload encoding to dst.
func appendRecord(dst []byte, rec record) []byte {
	dst = append(dst, rec.kind)
	if rec.kind == recTouch {
		return appendTime(appendString(dst, rec.fp), rec.at)
	}
	e := rec.e
	for _, s := range [...]string{e.Fingerprint, e.App, e.Class, e.APIs[0], e.APIs[1]} {
		dst = appendString(dst, s)
	}
	dst = binary.AppendUvarint(dst, uint64(len(e.Tables)))
	for _, t := range e.Tables {
		dst = appendString(dst, t)
	}
	for i := range e.Txns {
		t := &e.Txns[i]
		for _, s := range [...]string{t.API, t.HoldsSQL, t.HoldsAt, t.WaitsSQL, t.WaitsAt} {
			dst = appendString(dst, s)
		}
	}
	dst = binary.AppendVarint(dst, int64(e.Count))
	dst = binary.AppendVarint(dst, int64(e.Seen))
	return appendTime(appendTime(dst, e.FirstSeen), e.LastSeen)
}

// decoder reads one payload front to back. The first malformed field
// sets err and empties b, after which every read returns zero values.
type decoder struct {
	b    []byte
	strs map[string]string // shared copies of repeated strings; nil shares nothing
	err  error
}

func (d *decoder) fail() {
	d.b, d.err = nil, errCorruptRecord
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) { // truncated, overflowing, or not the shortest form
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	s := d.b[:n]
	d.b = d.b[n:]
	return s
}

// unique returns the next string as a fresh copy: for fingerprints, of
// which no two events share one.
func (d *decoder) unique() string { return string(d.bytes()) }

// shared returns the next string as the one copy every record decoded
// with the same table shares: apps, classes, APIs, tables, SQL templates
// and file:line locations repeat across thousands of events.
func (d *decoder) shared() string {
	b := d.bytes()
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	if d.strs != nil {
		d.strs[s] = s
	}
	return s
}

func (d *decoder) time() time.Time {
	sec, nsec := d.varint(), d.uvarint()
	if nsec >= 1e9 {
		d.fail()
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// decodeRecord decodes one payload. Strings are copied out of raw (the
// record never aliases it), the repeating ones through strs.
func decodeRecord(raw []byte, strs map[string]string) (record, error) {
	if len(raw) == 0 {
		return record{}, errCorruptRecord
	}
	d := decoder{b: raw[1:], strs: strs}
	rec := record{kind: raw[0]}
	switch rec.kind {
	case recEvent:
		e := &Event{Fingerprint: d.unique(), App: d.shared(), Class: d.shared()}
		e.APIs = [2]string{d.shared(), d.shared()}
		n := d.uvarint()
		if n > uint64(len(d.b)) { // a table takes at least its length byte
			d.fail()
		} else if n > 0 {
			e.Tables = make([]string, n)
			for i := range e.Tables {
				e.Tables[i] = d.shared()
			}
		}
		for i := range e.Txns {
			e.Txns[i] = TxnLock{API: d.shared(), HoldsSQL: d.shared(), HoldsAt: d.shared(),
				WaitsSQL: d.shared(), WaitsAt: d.shared()}
		}
		e.Count, e.Seen = int(d.varint()), int(d.varint())
		e.FirstSeen, e.LastSeen = d.time(), d.time()
		rec.e = e
	case recTouch:
		rec.fp, rec.at = d.unique(), d.time()
	default:
		return record{}, fmt.Errorf("history: unknown record kind 0x%02x", rec.kind)
	}
	if d.err != nil {
		return record{}, d.err
	}
	if len(d.b) != 0 {
		return record{}, fmt.Errorf("%w: %d trailing bytes", errCorruptRecord, len(d.b))
	}
	return rec, nil
}
