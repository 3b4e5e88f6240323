package history

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
)

// readV1 reads a version-1 log — headerless FNV-1a frames whose payloads
// carry every string inline (event: fingerprint, app, class, api0, api1,
// #tables, table..., 2 × (api, holds_sql, holds_at, waits_sql, waits_at),
// count, seen, first_seen, last_seen; touch: fingerprint, at) — into a
// store without a log, turning each record into the version-2 ones Ingest
// would have written. A torn tail is dropped, as a version-1 open did; a
// bad record, or a non-empty file without one intact frame, fails it. The
// only reader of version 1, for Open to migrate the log.
func readV1(path string, opts []StoreOption) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, off := newStore(opts), 0
	for off+8 <= len(data) && int(binary.LittleEndian.Uint32(data[off:])) <= len(data)-off-8 {
		payload := data[off+8 : off+8+int(binary.LittleEndian.Uint32(data[off:]))]
		h := fnv.New32a()
		if h.Write(payload); h.Sum32() != binary.LittleEndian.Uint32(data[off+4:]) {
			break
		}
		if err := s.applyV1(payload); err != nil {
			return nil, fmt.Errorf("history: version-1 log %s @%d: %w", path, off, err)
		}
		off += 8 + len(payload)
	}
	if off == 0 && len(data) > 0 {
		return nil, fmt.Errorf("history: %s is neither a version-2 nor a version-1 log", path)
	}
	return s, nil
}

// applyV1 applies one version-1 payload.
func (s *Store) applyV1(raw []byte) error {
	d := decoder{b: raw}
	switch kind := d.uvarint(); kind {
	case 1:
		e := Event{Fingerprint: d.str(), App: d.str(), Class: d.str(), APIs: [2]string{d.str(), d.str()}}
		for n := d.uvarint(); n > 0 && d.err == nil; n-- { // a table takes a byte at least
			e.Tables = append(e.Tables, d.str())
		}
		for i := range e.Txns {
			e.Txns[i] = TxnLock{API: d.str(), HoldsSQL: d.str(), HoldsAt: d.str(), WaitsSQL: d.str(), WaitsAt: d.str()}
		}
		e.Count, e.Seen = int(d.varint()), int(d.varint())
		e.FirstSeen, e.LastSeen = d.time(), d.time()
		if err := d.done(); err != nil {
			return err
		}
		return s.emitEvent(&e, s.applyPayload)
	case 2:
		fp, at := d.str(), d.time()
		if err := d.done(); err != nil {
			return err
		}
		e, ok := s.events[fp]
		if !ok {
			return fmt.Errorf("history: touch of unknown fingerprint %s", fp)
		}
		return s.applyPayload(s.encode(record{kind: recTouch, ord: uint64(e.ord), at: at}))
	default:
		return fmt.Errorf("history: unknown record kind %d", kind)
	}
}
