package topiclog

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// copyLogDir clones a log directory so each torture case mutates a
// fresh copy.
func copyLogDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// lastSegment returns the path of the highest-based segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".seg" {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		t.Fatal("no segments")
	}
	sort.Strings(names)
	return filepath.Join(dir, names[len(names)-1])
}

// lastRecordStart scans a segment file and returns the byte offset
// where its final record begins, plus the file length.
func lastRecordStart(t *testing.T, path string) (start, size int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for off < len(data) {
		_, _, n, err := ParseRecord(data[off:])
		if err != nil {
			t.Fatalf("pristine segment failed to parse at %d: %v", off, err)
		}
		if off+n == len(data) {
			return off, len(data)
		}
		off += n
	}
	t.Fatal("empty segment")
	return 0, 0
}

// verifyRecovered opens the log at dir and asserts records 1..wantLast
// survive intact and that the log accepts a fresh append stamped
// wantLast+1.
func verifyRecovered(t *testing.T, dir string, wantLast int) {
	t.Helper()
	l, err := Open(dir, Config{SegmentMaxBytes: 1 << 20})
	if err != nil {
		t.Fatalf("open after tear: %v", err)
	}
	defer l.Close()
	if got := l.NextSeq(); got != uint64(wantLast+1) {
		t.Fatalf("NextSeq after recovery = %d, want %d", got, wantLast+1)
	}
	got := drain(t, l, 0)
	if len(got) != wantLast {
		t.Fatalf("recovered %d records, want %d", len(got), wantLast)
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) || !bytes.Equal(r.Payload, payloadFor(i)) {
			t.Fatalf("recovered record %d corrupt (seq %d)", i, r.Seq)
		}
	}
	first, err := l.Append([][]byte{payloadFor(wantLast)})
	if err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if first != uint64(wantLast+1) {
		t.Fatalf("post-recovery append got seq %d, want %d", first, wantLast+1)
	}
}

// TestTornTailEveryOffset is the crash-safety torture test: a valid
// log is truncated at every byte offset inside its final record, and
// recovery must preserve every earlier record and keep appending.
func TestTornTailEveryOffset(t *testing.T) {
	const records = 12
	pristine := t.TempDir()
	l, err := Open(pristine, Config{SegmentMaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if _, err := l.Append([][]byte{payloadFor(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	seg := lastSegment(t, pristine)
	start, size := lastRecordStart(t, seg)
	for off := start; off < size; off++ {
		dir := copyLogDir(t, pristine)
		if err := os.Truncate(lastSegment(t, dir), int64(off)); err != nil {
			t.Fatal(err)
		}
		verifyRecovered(t, dir, records-1)
	}
}

// TestCorruptTailRecovery flips bytes in the final record (header and
// payload) and asserts the CRC check truncates it away.
func TestCorruptTailRecovery(t *testing.T) {
	const records = 8
	pristine := t.TempDir()
	l, err := Open(pristine, Config{SegmentMaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if _, err := l.Append([][]byte{payloadFor(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	seg := lastSegment(t, pristine)
	start, size := lastRecordStart(t, seg)
	for _, off := range []int{start + 12, start + HeaderLen, size - 1} {
		dir := copyLogDir(t, pristine)
		path := lastSegment(t, dir)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[off] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		verifyRecovered(t, dir, records-1)
	}
}

// TestMidLogTearDropsSuffix tears a non-final segment and asserts the
// unreachable suffix segments are removed rather than leaving a
// sequence gap.
func TestMidLogTearDropsSuffix(t *testing.T) {
	pristine := t.TempDir()
	l, err := Open(pristine, Config{SegmentMaxBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for l.Stats().Segments < 3 {
		if _, err := l.Append([][]byte{payloadFor(n)}); err != nil {
			t.Fatal(err)
		}
		n++
	}
	l.Close()

	ents, err := os.ReadDir(pristine)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".seg" {
			segs = append(segs, filepath.Join(pristine, e.Name()))
		}
	}
	sort.Strings(segs)
	first := segs[0]
	start, _ := lastRecordStart(t, first)
	if err := os.Truncate(first, int64(start)+5); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(pristine, Config{SegmentMaxBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := drain(t, l2, 0)
	for i, r := range got {
		if r.Seq != uint64(i+1) || !bytes.Equal(r.Payload, payloadFor(i)) {
			t.Fatalf("record %d corrupt after mid-log tear", i)
		}
	}
	if st := l2.Stats(); st.NextSeq != uint64(len(got)+1) || st.Segments != 1 {
		t.Fatalf("suffix not dropped cleanly: %+v with %d records", st, len(got))
	}
}
