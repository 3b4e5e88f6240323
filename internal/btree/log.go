package btree

// Log is a WAL-style append-only record log — the durable file layer the
// history store builds its in-memory indexes over. A log file starts with an
// 8-byte header, the magic "WSLG" and a uint32 LE format version (2), and
// then holds opaque byte payloads framed as
//
//	uint32 LE payload length | uint32 LE CRC-32C checksum | payload
//
// and only ever appended. OpenLog replays every intact record through a
// callback so the caller can rebuild its in-memory state (its event index
// and rollups), then truncates any torn tail: a crash mid-append leaves a
// short or checksum-corrupt final frame, which is silently dropped —
// everything before it is intact by construction. A corrupt frame is
// always treated as the torn tail; since writes are strictly sequential,
// nothing after the first bad frame can be trusted. A file that does not
// start with the header is never truncated: OpenLog refuses it with a
// *FormatError, unless it is a torn header (a prefix of the header, the
// empty file included), which only a crash while creating the log leaves.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// fileHeader starts every log: the magic "WSLG" and the uint32 LE format
// version, 2. Read as a frame length, the magic is over MaxLogRecord, so
// no version-1 log (which had no header) starts with it.
const (
	logMagic       = "WSLG"
	fileHeader     = logMagic + "\x02\x00\x00\x00"
	fileHeaderSize = len(fileHeader)

	frameHeaderSize = 8 // a frame's length and checksum
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FormatError is OpenLog's refusal of a file that is not a log of this
// format; the file is left as it was.
type FormatError struct {
	Path    string
	Version uint32 // the header's version; 0 when the file has no header
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("btree: %s is not a version-2 log (header version %d, 0 if it has none)", e.Path, e.Version)
}

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
	w     io.Writer // where Append writes: f, or Rewrite's buffer over it
	path  string
	size  int64  // bytes of intact, replayed frames
	frame []byte // Append's frame buffer, reused
}

// logChecksum is the CRC-32C checksum of a payload.
func logChecksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// OpenLog opens (creating if absent) the log at path and replays every
// intact record through replay in append order; rec is valid only during
// the call. A torn final frame — short header, short payload, or checksum
// mismatch — is truncated away; a replay callback error aborts the open,
// and so does a file without the log header (a *FormatError), both before
// anything is written. The returned log is positioned for appending.
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
	l := &Log{f: f, w: f, path: path}
	err = l.readHeader()
	if err == nil {
		err = l.replayAll(replay, done)
	}
	if err != nil {
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

// readHeader checks the file header, first writing it over a torn one: a
// file shorter than the header that holds a prefix of it, the empty file
// of a new log included.
func (l *Log) readHeader() error {
	var hdr [fileHeaderSize]byte
	n, err := io.ReadFull(l.f, hdr[:])
	switch {
	case err != nil && err != io.EOF && err != io.ErrUnexpectedEOF:
		return err
	case string(hdr[:n]) == fileHeader[:n]: // the header, or a torn one
		if n < fileHeaderSize {
			_, err = l.f.WriteAt([]byte(fileHeader), 0)
		}
		return err
	case n == fileHeaderSize && string(hdr[:len(logMagic)]) == logMagic:
		return &FormatError{Path: l.path, Version: binary.LittleEndian.Uint32(hdr[len(logMagic):])}
	}
	return &FormatError{Path: l.path}
}

// replayAll scans the frames after the file header through one buffered
// reader and one payload buffer, invoking replay for each intact frame and
// done after the last, and recording the offset of the last good frame end.
func (l *Log) replayAll(replay func(off int64, rec []byte) error, done func() error) error {
	off := int64(fileHeaderSize)
	if _, err := l.f.Seek(off, io.SeekStart); err != nil {
		return err
	}
	fi, err := l.f.Stat()
	if err != nil {
		return err
	}
	r := bufio.NewReaderSize(l.f, 1<<16)
	var hdr [frameHeaderSize]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			break // clean EOF or torn header — intact prefix ends here
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n > int64(maxLogRecord) || n > fi.Size()-off-frameHeaderSize {
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
		off += frameHeaderSize + n
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
// call so a crash tears at most the final record; inside Rewrite's fill
// it goes to a buffer instead, since a crash there loses the whole
// replacement anyway.
func (l *Log) Append(rec []byte) error {
	if len(rec) > maxLogRecord {
		return fmt.Errorf("%w: %d bytes, limit %d", ErrRecordTooLarge, len(rec), maxLogRecord)
	}
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(rec)))
	binary.LittleEndian.PutUint32(hdr[4:8], logChecksum(rec))
	l.frame = append(append(l.frame[:0], hdr[:]...), rec...)
	if _, err := l.w.Write(l.frame); err != nil {
		return err
	}
	l.size += int64(len(l.frame))
	return nil
}

// RewriteSuffix is appended to a log's path to name the file Rewrite
// builds its replacement in.
const RewriteSuffix = ".rewrite"

// Rewrite replaces the log at path with a new one holding what fill
// appends and returns it, positioned for appending. The new log is written
// to path+RewriteSuffix (a leftover from an interrupted rewrite is
// discarded first) through one buffer, flushed, synced, and renamed over
// path, so a crash leaves either the old log or the new one whole. An
// error before the rename returns no log and leaves path as it was; after
// it, path names the returned log, which comes back too when the
// directory sync that makes the rename durable fails.
func Rewrite(path string, fill func(*Log) error) (*Log, error) {
	tmp := path + RewriteSuffix
	if err := os.Remove(tmp); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	l, err := OpenLog(tmp, nil)
	if err != nil {
		return nil, err
	}
	buf := bufio.NewWriterSize(l.f, 1<<16)
	l.w = buf
	err = fill(l)
	l.w = l.f
	if err == nil {
		err = buf.Flush()
	}
	if err == nil {
		err = l.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		l.f.Close()
		os.Remove(tmp) // best effort: the next Rewrite discards it too
		return nil, err
	}
	l.path = path
	dir, err := os.Open(filepath.Dir(path))
	if err == nil {
		err = dir.Sync()
		dir.Close()
	}
	return l, err
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
