// Race-tested plane: the durable topic log. Under go test -race this
// package checks appends against cursors, retention reaping and torn-tail
// recovery. The broker's record/replay tests (staged burst appends,
// replay pumps, the AttachTail exactly-once handoff, churned joiners
// under load) and the SDK's late-joiner tests exercise the same log from
// many goroutines at once, with the append lock as the serialization
// point between history and live delivery.

package topiclog

import (
	"bytes"
	"fmt"
	"testing"
)

func payloadFor(i int) []byte {
	return []byte(fmt.Sprintf("payload-%06d-abcdefghijklmnopqrstuvwxyz", i))
}

// appendN appends n records one batch per batchSize and returns the
// payloads in order.
func appendN(t *testing.T, l *Log, start, n, batchSize int) [][]byte {
	t.Helper()
	var all [][]byte
	for i := 0; i < n; i += batchSize {
		var batch [][]byte
		for j := i; j < n && j < i+batchSize; j++ {
			batch = append(batch, payloadFor(start+j))
		}
		if _, err := l.Append(batch); err != nil {
			t.Fatalf("append: %v", err)
		}
		all = append(all, batch...)
	}
	return all
}

// drain reads every committed record from seq from.
func drain(t *testing.T, l *Log, from uint64) []Record {
	t.Helper()
	c := l.NewCursor(from)
	defer c.Close()
	var out []Record
	for {
		var err error
		before := len(out)
		out, err = c.Next(out, 64)
		if err != nil {
			t.Fatalf("cursor next: %v", err)
		}
		if len(out) == before {
			return out
		}
	}
}

func TestAppendReadRoundtrip(t *testing.T) {
	l, err := Open(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := appendN(t, l, 0, 500, 37)
	got := drain(t, l, 0)
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d", i, r.Seq, i+1)
		}
		if !bytes.Equal(r.Payload, want[i]) {
			t.Fatalf("record %d payload mismatch", i)
		}
	}
	st := l.Stats()
	if st.NextSeq != 501 || st.Appended != 500 || st.EarliestSeq != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSegmentSizeRoll(t *testing.T) {
	l, err := Open(t.TempDir(), Config{SegmentMaxBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 400, 10)
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected several segments, got %d", st.Segments)
	}
	got := drain(t, l, 0)
	if len(got) != 400 {
		t.Fatalf("read %d records across rolls, want 400", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) || !bytes.Equal(r.Payload, payloadFor(i)) {
			t.Fatalf("record %d wrong after roll (seq %d)", i, r.Seq)
		}
	}
}

func TestRetentionReap(t *testing.T) {
	l, err := Open(t.TempDir(), Config{SegmentMaxBytes: 1024, MaxSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 300, 10)
	before := l.Stats()
	if before.Segments <= 2 {
		t.Fatalf("setup: expected >2 segments, got %d", before.Segments)
	}
	n, err := l.Reap()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("reap removed nothing")
	}
	after := l.Stats()
	if after.Segments != 2 {
		t.Fatalf("segments after reap = %d, want 2", after.Segments)
	}
	if after.EarliestSeq <= before.EarliestSeq {
		t.Fatalf("earliest did not advance: %d -> %d", before.EarliestSeq, after.EarliestSeq)
	}
	if after.Reaped != uint64(n) {
		t.Fatalf("reaped stat = %d, want %d", after.Reaped, n)
	}
	// A cursor asking for reaped history clamps to the earliest
	// retained record.
	got := drain(t, l, 1)
	if len(got) == 0 || got[0].Seq != after.EarliestSeq {
		t.Fatalf("clamped cursor starts at %d, want %d", got[0].Seq, after.EarliestSeq)
	}
	if got[len(got)-1].Seq != 300 {
		t.Fatalf("clamped cursor ends at %d, want 300", got[len(got)-1].Seq)
	}
}

func TestReapNeverRemovesPinnedSegment(t *testing.T) {
	l, err := Open(t.TempDir(), Config{SegmentMaxBytes: 1024, MaxSegments: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 200, 10)
	c := l.NewCursor(1) // pins the earliest segment
	got, err := c.Next(nil, 4)
	if err != nil || len(got) == 0 {
		t.Fatalf("cursor next: %d records, err %v", len(got), err)
	}
	if n, _ := l.Reap(); n != 0 {
		t.Fatalf("reap removed %d segments under an active cursor", n)
	}
	if l.Stats().EarliestSeq != 1 {
		t.Fatal("pinned segment was reaped")
	}
	// The cursor must still be able to read everything.
	for {
		before := len(got)
		got, err = c.Next(got, 64)
		if err != nil {
			t.Fatalf("cursor next: %v", err)
		}
		if len(got) == before {
			break
		}
	}
	if len(got) != 200 {
		t.Fatalf("cursor read %d records, want 200", len(got))
	}
	c.Close()
	if n, _ := l.Reap(); n == 0 {
		t.Fatal("reap removed nothing after cursor close")
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Config{SegmentMaxBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 100, 7)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Config{SegmentMaxBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.NextSeq() != 101 {
		t.Fatalf("reopened NextSeq = %d, want 101", l2.NextSeq())
	}
	appendN(t, l2, 100, 50, 7)
	got := drain(t, l2, 0)
	if len(got) != 150 {
		t.Fatalf("read %d records after reopen, want 150", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) || !bytes.Equal(r.Payload, payloadFor(i)) {
			t.Fatalf("record %d wrong after reopen", i)
		}
	}
}

func TestAppendLimits(t *testing.T) {
	l, err := Open(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([][]byte{make([]byte, DefaultMaxRecordBytes+1)}); err == nil {
		t.Fatal("oversized record accepted")
	}
	if _, err := l.Append([][]byte{make([]byte, DefaultMaxRecordBytes)}); err != nil {
		t.Fatalf("max-size record rejected: %v", err)
	}
	l.Close()
	if _, err := l.Append([][]byte{{1}}); err == nil {
		t.Fatal("append after close accepted")
	}
}
