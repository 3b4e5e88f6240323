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
	b   []byte // the unread rest of the payload
	src string // a copy of the whole payload; every decoded string is a substring of it
	err error
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

func (d *decoder) str() string {
	n := d.uvarint()
	if n == 0 || n > uint64(len(d.b)) {
		if n > 0 {
			d.fail()
		}
		return "" // not src[at:at], which would keep src alive
	}
	at := len(d.src) - len(d.b)
	d.b = d.b[n:]
	return d.src[at : at+int(n)]
}

func (d *decoder) time() time.Time {
	sec, nsec := d.varint(), d.uvarint()
	if nsec >= 1e9 {
		d.fail()
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// decodeRecord decodes one payload. Its strings are substrings of one
// copy of raw (the record never aliases raw itself); Store.intern gives a
// decoded event strings of its own before the store keeps it.
func decodeRecord(raw []byte) (record, error) {
	if len(raw) == 0 {
		return record{}, errCorruptRecord
	}
	d := decoder{b: raw[1:], src: string(raw)}
	rec := record{kind: raw[0]}
	switch rec.kind {
	case recEvent:
		e := &Event{Fingerprint: d.str(), App: d.str(), Class: d.str()}
		e.APIs = [2]string{d.str(), d.str()}
		n := d.uvarint()
		if n > uint64(len(d.b)) { // a table takes at least its length byte
			d.fail()
		} else if n > 0 {
			e.Tables = make([]string, n)
			for i := range e.Tables {
				e.Tables[i] = d.str()
			}
		}
		for i := range e.Txns {
			e.Txns[i] = TxnLock{API: d.str(), HoldsSQL: d.str(), HoldsAt: d.str(),
				WaitsSQL: d.str(), WaitsAt: d.str()}
		}
		e.Count, e.Seen = int(d.varint()), int(d.varint())
		e.FirstSeen, e.LastSeen = d.time(), d.time()
		rec.e = e
	case recTouch:
		rec.fp, rec.at = d.str(), d.time()
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
