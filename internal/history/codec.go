package history

// The WAL payload codec: what goes inside one btree.Log frame. Three
// record shapes, written by hand because a replay decodes every record the
// store has ever appended:
//
//	def:   0x03 | string
//	event: 0x01 | fingerprint | app | class | api0 | api1
//	            | uvarint #tables | table...
//	            | 2 × (api | holds_sql | holds_at | waits_sql | waits_at)
//	            | count | seen | first_seen | last_seen
//	touch: 0x02 | uvarint ordinal | at
//
// A def gives the next dictionary id (1, 2, ... in log order; id 0 is the
// empty string) to a string no def before it named. An event carries its
// fingerprint inline and every other string as a uvarint dictionary id; a
// touch names its event by the event record's ordinal in the log (0 for
// the first). A string is its uvarint byte length followed by the bytes;
// count and seen are zig-zag varints; a time is zig-zag varint Unix
// seconds followed by uvarint nanoseconds (< 1e9) and decodes in UTC, so
// the zero time round-trips. Every varint must be in its shortest form and
// a record must use exactly its payload, so a payload that decodes
// re-encodes to the same bytes. Zero tables decode as a nil slice.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// Record kinds: the first payload byte.
const (
	recEvent byte = 1
	recTouch byte = 2
	recDef   byte = 3
)

// Positions in entry.ids, which holds app, class, the API pair, then each
// transaction's five strings (see eventFields).
const (
	idClass = 1
	idAPI0  = 2
	idAPI1  = 3
	numIDs  = 14
)

// entry is one stored event: its fingerprint inline and every other string
// as its dictionary id, in the order eventFields lists them. A decoded
// event record is the entry the store keeps.
type entry struct {
	fp          string
	ids         [numIDs]uint32
	tables      []uint32 // in table-name order
	count, seen int
	first, last time.Time
	ord         int // the ordinal of its event record; set by apply, not encoded
}

// record is one decoded WAL payload.
type record struct {
	kind byte
	def  string    // recDef
	e    *entry    // recEvent
	ord  uint64    // recTouch
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
	switch rec.kind {
	case recDef:
		return appendString(dst, rec.def)
	case recTouch:
		return appendTime(binary.AppendUvarint(dst, rec.ord), rec.at)
	}
	e := rec.e
	dst = appendString(dst, e.fp)
	for _, id := range e.ids[:idAPI1+1] {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	dst = binary.AppendUvarint(dst, uint64(len(e.tables)))
	for _, id := range e.tables {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	for _, id := range e.ids[idAPI1+1:] {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	dst = binary.AppendVarint(dst, int64(e.count))
	dst = binary.AppendVarint(dst, int64(e.seen))
	return appendTime(appendTime(dst, e.first), e.last)
}

// decoder reads one payload front to back. The first malformed field
// sets err and empties b, after which every read returns zero values.
type decoder struct {
	b   []byte // the unread rest of the payload
	err error
}

func (d *decoder) fail() {
	d.b, d.err = nil, errCorruptRecord
}

func (d *decoder) uvarint() uint64 {
	if len(d.b) > 0 && d.b[0] < 0x80 {
		v := uint64(d.b[0])
		d.b = d.b[1:]
		return v
	}
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

// id reads a dictionary id; whether the dictionary holds it is apply's.
func (d *decoder) id() uint32 {
	v := d.uvarint()
	if v > math.MaxUint32 {
		d.fail()
		return 0
	}
	return uint32(v)
}

// str returns a copy of the next string: a record never aliases raw.
func (d *decoder) str() string {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
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

// done reports the decode's verdict: its first error, or one for bytes the
// record left unread.
func (d *decoder) done() error {
	if d.err == nil && len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", errCorruptRecord, len(d.b))
	}
	return d.err
}

// decodeRecord decodes one payload. Nothing in the record aliases raw.
func decodeRecord(raw []byte) (record, error) {
	if len(raw) == 0 {
		return record{}, errCorruptRecord
	}
	d := decoder{b: raw[1:]}
	rec := record{kind: raw[0]}
	switch rec.kind {
	case recDef:
		rec.def = d.str()
	case recEvent:
		e := &entry{fp: d.str()}
		for i := range e.ids[:idAPI1+1] {
			e.ids[i] = d.id()
		}
		n := d.uvarint()
		if n > uint64(len(d.b)) { // an id takes at least one byte
			d.fail()
		} else if n > 0 {
			e.tables = make([]uint32, n)
			for i := range e.tables {
				e.tables[i] = d.id()
			}
		}
		for i := idAPI1 + 1; i < numIDs; i++ {
			e.ids[i] = d.id()
		}
		e.count, e.seen = int(d.varint()), int(d.varint())
		e.first, e.last = d.time(), d.time()
		rec.e = e
	case recTouch:
		rec.ord, rec.at = d.uvarint(), d.time()
	default:
		return record{}, fmt.Errorf("history: unknown record kind 0x%02x", rec.kind)
	}
	if err := d.done(); err != nil {
		return record{}, err
	}
	return rec, nil
}
