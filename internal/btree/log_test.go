package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func openCollect(t *testing.T, path string) (*Log, [][]byte) {
	t.Helper()
	var recs [][]byte
	l, err := OpenLog(path, func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, recs
}

func TestLogAppendReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	l, recs := openCollect(t, path)
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		rec := []byte(fmt.Sprintf("record-%03d-%s", i, bytes.Repeat([]byte{byte(i)}, i)))
		want = append(want, rec)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got := openCollect(t, path)
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: got %q want %q", i, got[i], want[i])
		}
	}
	// An empty record is a legal frame.
	if err := l2.Append(nil); err != nil {
		t.Fatal(err)
	}
}

// TestLogTornTail cuts the file mid-frame at every possible torn length
// of the final record and verifies reload drops exactly that record,
// truncates the file back to the intact prefix, and appends cleanly
// afterwards.
func TestLogTornTail(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.wal")
	l, _ := openCollect(t, base)
	if err := l.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	intact := l.Size()
	if err := l.Append([]byte("second-record")); err != nil {
		t.Fatal(err)
	}
	full := l.Size()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}

	for cut := intact + 1; cut < full; cut++ {
		path := filepath.Join(dir, fmt.Sprintf("torn-%d.wal", cut))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, recs := openCollect(t, path)
		if len(recs) != 1 || string(recs[0]) != "first" {
			t.Fatalf("cut %d: replayed %q, want just \"first\"", cut, recs)
		}
		if l2.Size() != intact {
			t.Fatalf("cut %d: size %d after truncate, want %d", cut, l2.Size(), intact)
		}
		if err := l2.Append([]byte("third")); err != nil {
			t.Fatal(err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		_, recs = openCollect(t, path)
		if len(recs) != 2 || string(recs[1]) != "third" {
			t.Fatalf("cut %d: post-recovery replay %q", cut, recs)
		}
	}
}

// TestOpenLogFramesLateError: replay sees each frame with its offset, done
// runs after the last intact frame and before the torn tail is truncated,
// and an error from done that is a *FrameError fails the open naming that
// frame, with the file left as it was.
func TestOpenLogFramesLateError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "late.wal")
	l, _ := openCollect(t, path)
	var want []int64
	for _, rec := range []string{"first", "second-record", "third"} {
		want = append(want, l.Size())
		if err := l.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	torn := []byte{1, 2, 3} // a short frame header
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var offs []int64
	late := errors.New("second record refused late")
	_, err = OpenLogFrames(path, func(off int64, rec []byte) error {
		offs = append(offs, off)
		return nil
	}, func() error {
		return &FrameError{Off: offs[1], Err: late}
	})
	if fmt.Sprint(offs) != fmt.Sprint(want) {
		t.Errorf("replay saw offsets %v, want %v", offs, want)
	}
	if !errors.Is(err, late) || !strings.Contains(err.Error(), fmt.Sprintf("@%d: ", want[1])) {
		t.Errorf("open error %v, want %v at @%d", err, late, want[1])
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Fatalf("the refused open changed the log: %d bytes, was %d", len(after), len(before))
	}
}

// TestLogCorruptChecksumTail flips a payload byte in the final record:
// reload must drop it like a torn write.
func TestLogCorruptChecksumTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.wal")
	l, _ := openCollect(t, path)
	for _, rec := range []string{"alpha", "beta"} {
		if err := l.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, recs := openCollect(t, path)
	defer l2.Close()
	if len(recs) != 1 || string(recs[0]) != "alpha" {
		t.Fatalf("replayed %q, want just \"alpha\"", recs)
	}
}

// TestLogGarbageLength writes an absurd length prefix after a good
// record: reload must stop at the intact prefix instead of allocating.
func TestLogGarbageLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.wal")
	l, _ := openCollect(t, path)
	if err := l.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	l2, recs := openCollect(t, path)
	defer l2.Close()
	if len(recs) != 1 || string(recs[0]) != "good" {
		t.Fatalf("replayed %q, want just \"good\"", recs)
	}
}

// TestLogAppendRefusesOversized: a record replay would take for a torn
// tail — and drop with everything after it — must not get into the log.
func TestLogAppendRefusesOversized(t *testing.T) {
	defer func(old int) { maxLogRecord = old }(maxLogRecord)
	maxLogRecord = 64

	path := filepath.Join(t.TempDir(), "big.wal")
	l, _ := openCollect(t, path)
	if err := l.Append(bytes.Repeat([]byte{'a'}, maxLogRecord)); err != nil {
		t.Fatalf("record at the limit: %v", err)
	}
	size := l.Size()
	if err := l.Append(bytes.Repeat([]byte{'b'}, maxLogRecord+1)); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("Append of a record over the limit: %v, want ErrRecordTooLarge", err)
	}
	if l.Size() != size {
		t.Fatalf("refused record moved Size from %d to %d", size, l.Size())
	}
	if err := l.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, recs := openCollect(t, path)
	defer l2.Close()
	if len(recs) != 2 || len(recs[0]) != maxLogRecord || string(recs[1]) != "after" {
		t.Fatalf("replayed %d records, want the one at the limit and \"after\"", len(recs))
	}
}

// TestLogRewrite: Rewrite replaces the log with what fill appends, over a
// leftover temp file of an interrupted rewrite, and returns it open for
// appending at path; a fill that fails leaves the old log and no temp file.
func TestLogRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rewrite.wal")
	l, _ := openCollect(t, path)
	for _, rec := range []string{"old-1", "old-2"} {
		if err := l.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+RewriteSuffix, []byte("leftover"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Rewrite(path, func(l *Log) error { return l.Append([]byte("new")) })
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, frames("new")) {
		t.Fatalf("rewritten log %x, want %x", got, frames("new"))
	}
	if err := l.Append([]byte("appended")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	want := frames("new", "appended")
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want) || l.Size() != int64(len(want)) {
		t.Fatalf("log after an append to the rewritten one %x (size %d), want %x", got, l.Size(), want)
	}
	refused := errors.New("fill refused")
	if l, err := Rewrite(path, func(l *Log) error { return refused }); !errors.Is(err, refused) || l != nil {
		t.Fatalf("Rewrite with a failing fill: %v, %v", l, err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
		t.Fatal("a failed rewrite changed the log")
	}
	if _, err := os.Stat(path + RewriteSuffix); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a failed rewrite left its temp file: %v", err)
	}
}

// body frames records the way Append does.
func body(recs ...string) []byte {
	var out []byte
	for _, r := range recs {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(r)))
		out = binary.LittleEndian.AppendUint32(out, logChecksum([]byte(r)))
		out = append(out, r...)
	}
	return out
}

// frames is a log file holding recs: the header, then their frames.
func frames(recs ...string) []byte {
	return append([]byte(fileHeader), body(recs...)...)
}

// FuzzLogReplay opens a file of arbitrary bytes; OpenLog must not panic.
// A file shorter than the header that is a prefix of it (a torn header)
// opens empty and is left as the header alone. Any other file that does
// not start with the header is refused with a *FormatError and left
// byte-for-byte as it was. A file that does start with it opens, keeps a
// prefix of itself, and a second open replays it to the same records
// without truncating anything more.
func FuzzLogReplay(f *testing.F) {
	good := frames("alpha", "", "gamma-gamma")
	f.Add([]byte{})
	f.Add(good)
	f.Add(good[:len(good)-3])                                                         // torn payload
	f.Add(good[:fileHeaderSize+frameHeaderSize+5+3])                                  // torn frame header
	f.Add(append(frames("ok"), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0))                   // garbage length
	f.Add(append(frames("ok"), 0xff, 0xff, 0xff, 0x03, 0, 0, 0, 0, 'x'))              // length under the limit, past the end
	f.Add(append(append(frames("ok"), 3, 0, 0, 0, 1, 2, 3, 4), "bad"...))             // checksum mismatch
	f.Add(append(append(frames("ok"), 3, 0, 0, 0, 1, 2, 3, 4), body("alpha", "")...)) // intact frames after a bad one
	f.Add(body("alpha", "", "gamma-gamma"))                                           // no header, as a version-1 log
	f.Add(append([]byte(logMagic+"\x01\x00\x00\x00"), body("alpha")...))              // an unknown version
	f.Add([]byte(logMagic + "\x00\x00\x00\x00"))                                      // version 0
	f.Add([]byte(fileHeader[:5]))                                                     // a torn header
	f.Add([]byte(logMagic[:2] + "x"))                                                 // short, but no prefix of the header
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var first [][]byte
		l, err := OpenLog(path, func(rec []byte) error {
			first = append(first, append([]byte(nil), rec...))
			return nil
		})
		torn := len(data) < fileHeaderSize && strings.HasPrefix(fileHeader, string(data))
		if !torn && !bytes.HasPrefix(data, []byte(fileHeader)) {
			var fe *FormatError
			var version uint32 // what the file names for a version, if anything
			if len(data) >= fileHeaderSize && bytes.HasPrefix(data, []byte(logMagic)) {
				version = binary.LittleEndian.Uint32(data[len(logMagic):])
			}
			if !errors.As(err, &fe) || fe.Version != version {
				t.Fatalf("open of a file without the header: %v, want a *FormatError naming version %d", err, version)
			}
			if kept, _ := os.ReadFile(path); !bytes.Equal(kept, data) {
				t.Fatal("the refused open changed the file")
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		size := l.Size()
		if torn && (size != int64(fileHeaderSize) || len(first) != 0) {
			t.Fatalf("a torn header opened at Size %d with %d records", size, len(first))
		}
		if !torn && size > int64(len(data)) {
			t.Fatalf("Size %d of a %d-byte file", size, len(data))
		}
		n := int64(fileHeaderSize)
		for _, r := range first {
			n += frameHeaderSize + int64(len(r))
		}
		if n != size {
			t.Fatalf("the header and the replayed frames cover %d bytes, Size is %d", n, size)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := []byte(fileHeader)
		if !torn {
			want = data[:size]
		}
		if !bytes.Equal(kept, want) {
			t.Fatalf("file after open is %x, want %x", kept, want)
		}

		l2, second := openCollect(t, path)
		defer l2.Close()
		if l2.Size() != size {
			t.Fatalf("second open truncated further: Size %d, was %d", l2.Size(), size)
		}
		if len(second) != len(first) {
			t.Fatalf("second open replayed %d records, first %d", len(second), len(first))
		}
		for i := range first {
			if !bytes.Equal(first[i], second[i]) {
				t.Fatalf("record %d differs between opens", i)
			}
		}
	})
}
