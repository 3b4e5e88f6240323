package btree

// Log is a WAL-style append-only record log — the durable file layer the
// history store builds its B-tree indexes over. Records are opaque byte
// payloads framed as
//
//	uint32 LE payload length | uint32 LE FNV-1a checksum | payload
//
// and only ever appended. OpenLog replays every intact record through a
// callback so the caller can rebuild its in-memory state (the B-tree maps
// and rollups), then truncates any torn tail: a crash mid-append leaves a
// short or checksum-corrupt final frame, which is silently dropped —
// everything before it is intact by construction. A corrupt frame is
// always treated as the torn tail; since writes are strictly sequential,
// nothing after the first bad frame can be trusted.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

const logHeaderSize = 8

// MaxLogRecord bounds a single record. Append refuses a longer one with
// ErrRecordTooLarge, because replay takes a longer length prefix for
// garbage — a torn tail — and drops it with every frame after it.
const MaxLogRecord = 1 << 26 // 64 MiB

// maxLogRecord is MaxLogRecord; a variable so tests can lower it.
var maxLogRecord = MaxLogRecord

// ErrRecordTooLarge is what Append's refusal of an over-long record wraps:
// the caller's payload is at fault, not the log.
var ErrRecordTooLarge = errors.New("btree: log record exceeds the size limit")

// Log is an append-only record log backed by one file. Not safe for
// concurrent use.
type Log struct {
	f     *os.File
	path  string
	size  int64  // bytes of intact, replayed frames
	frame []byte // Append's frame buffer, reused
}

// logChecksum is the FNV-1a 32-bit checksum of a payload.
func logChecksum(p []byte) uint32 {
	h := uint32(2166136261)
	for _, b := range p {
		h = (h ^ uint32(b)) * 16777619
	}
	return h
}

// OpenLog opens (creating if absent) the log at path and replays every
// intact record through replay in append order; rec is valid only during
// the call. A torn final frame — short header, short payload, or checksum
// mismatch — is truncated away; a replay callback error aborts the open.
// The returned log is positioned for appending.
func OpenLog(path string, replay func(rec []byte) error) (*Log, error) {
	return OpenLogFrames(path, func(_ int64, rec []byte) error {
		if replay == nil {
			return nil
		}
		return replay(rec)
	}, nil)
}

// FrameError is a replay error that belongs to the frame at Off rather
// than to the one being replayed.
type FrameError struct {
	Off int64
	Err error
}

func (e *FrameError) Error() string { return fmt.Sprintf("@%d: %v", e.Off, e.Err) }

// OpenLogFrames is OpenLog for a replay that applies records behind the
// callback: replay also gets each frame's offset, and done, if not nil,
// runs after the last intact frame, before the torn tail is truncated. An
// error from either aborts the open; a *FrameError names its own frame.
func OpenLogFrames(path string, replay func(off int64, rec []byte) error, done func() error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f, path: path}
	if err := l.replayAll(replay, done); err != nil {
		f.Close()
		return nil, err
	}
	// Drop the torn tail (no-op when the file ends on a frame boundary)
	// and position the write cursor at the end of the intact prefix.
	if err := f.Truncate(l.size); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(l.size, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// replayAll scans the file from the start through one buffered reader and
// one payload buffer, invoking replay for each intact frame and done after
// the last, and recording the offset of the last good frame end.
func (l *Log) replayAll(replay func(off int64, rec []byte) error, done func() error) error {
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	fi, err := l.f.Stat()
	if err != nil {
		return err
	}
	r := bufio.NewReaderSize(l.f, 1<<16)
	var off int64
	var hdr [logHeaderSize]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			break // clean EOF or torn header — intact prefix ends here
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n > int64(maxLogRecord) || n > fi.Size()-off-logHeaderSize {
			break // garbage length or torn payload: nothing to allocate for
		}
		if n > int64(cap(payload)) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			break // torn payload
		}
		if logChecksum(payload) != sum {
			break // corrupt frame
		}
		if err := replay(off, payload); err != nil {
			return l.replayError(off, err)
		}
		off += logHeaderSize + n
	}
	if done != nil {
		if err := done(); err != nil {
			return l.replayError(off, err)
		}
	}
	l.size = off
	return nil
}

// replayError names the log and the offset of the frame err belongs to.
func (l *Log) replayError(off int64, err error) error {
	var fe *FrameError
	if errors.As(err, &fe) {
		off, err = fe.Off, fe.Err
	}
	return fmt.Errorf("btree: log replay %s @%d: %w", l.path, off, err)
}

// Append writes one record. The frame is written with a single Write
// call so a crash tears at most the final record.
func (l *Log) Append(rec []byte) error {
	if len(rec) > maxLogRecord {
		return fmt.Errorf("%w: %d bytes, limit %d", ErrRecordTooLarge, len(rec), maxLogRecord)
	}
	var hdr [logHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(rec)))
	binary.LittleEndian.PutUint32(hdr[4:8], logChecksum(rec))
	l.frame = append(append(l.frame[:0], hdr[:]...), rec...)
	if _, err := l.f.Write(l.frame); err != nil {
		return err
	}
	l.size += int64(len(l.frame))
	return nil
}

// Sync flushes appended records to stable storage.
func (l *Log) Sync() error { return l.f.Sync() }

// Size returns the byte length of the intact log.
func (l *Log) Size() int64 { return l.size }

// Close syncs and closes the backing file.
func (l *Log) Close() error {
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}
