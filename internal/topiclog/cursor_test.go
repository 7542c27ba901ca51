package topiclog

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestCursorFromSequence(t *testing.T) {
	l, err := Open(t.TempDir(), Config{SegmentMaxBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 300, 13)
	got := drain(t, l, 151)
	if len(got) != 150 {
		t.Fatalf("read %d records from mid-log, want 150", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(151+i) || !bytes.Equal(r.Payload, payloadFor(150+i)) {
			t.Fatalf("record %d wrong (seq %d)", i, r.Seq)
		}
	}
	// From the tail: nothing until new appends arrive.
	c := l.NewCursor(l.NextSeq())
	defer c.Close()
	if out, err := c.Next(nil, 16); err != nil || len(out) != 0 {
		t.Fatalf("tail cursor returned %d records, err %v", len(out), err)
	}
	appendN(t, l, 300, 5, 5)
	out, err := c.Next(nil, 16)
	if err != nil || len(out) != 5 {
		t.Fatalf("tail cursor after append: %d records, err %v", len(out), err)
	}
}

// TestCursorAcrossRoll replays a log spread over many segments and
// checks order and payload integrity across every boundary.
func TestCursorAcrossRoll(t *testing.T) {
	l, err := Open(t.TempDir(), Config{SegmentMaxBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 1000, 9)
	if l.Stats().Segments < 10 {
		t.Fatalf("setup: expected many segments, got %d", l.Stats().Segments)
	}
	got := drain(t, l, 0)
	if len(got) != 1000 {
		t.Fatalf("read %d records, want 1000", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) || !bytes.Equal(r.Payload, payloadFor(i)) {
			t.Fatalf("record %d wrong across rolls", i)
		}
	}
}

// TestAttachTailExactlyOnce drives a cursor to the tail under a
// concurrent appender and proves the history→tail handoff delivers
// every record exactly once, in order.
func TestAttachTailExactlyOnce(t *testing.T) {
	l, err := Open(t.TempDir(), Config{SegmentMaxBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const total = 5000
	appendDone := make(chan struct{})
	go func() {
		defer close(appendDone)
		for i := 0; i < total; i += 25 {
			var batch [][]byte
			for j := i; j < total && j < i+25; j++ {
				batch = append(batch, []byte(fmt.Sprintf("%08d", j+1)))
			}
			if _, err := l.Append(batch); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()

	var mu sync.Mutex
	var seqs []uint64
	tail := func(run []byte, first uint64, count int) {
		mu.Lock()
		defer mu.Unlock()
		for i := 0; len(run) > 0; i++ {
			seq, _, n, err := ParseRecord(run, 0)
			if err != nil || seq != first+uint64(i) {
				t.Errorf("tail run record %d: seq %d (first %d), err %v", i, seq, first, err)
				return
			}
			seqs = append(seqs, seq)
			run = run[n:]
		}
		if got := len(seqs); got == 0 || seqs[got-1] != first+uint64(count)-1 {
			t.Errorf("tail run from %d does not hold %d records", first, count)
		}
	}

	c := l.NewCursor(0)
	defer c.Close()
	for attached := false; !attached; {
		out, err := c.Next(nil, 64)
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		if len(out) == 0 {
			// At the committed tail: attempt the handoff. A concurrent
			// append between Next and AttachTail makes it fail; loop.
			attached = c.AttachTail(tail)
			continue
		}
		mu.Lock()
		for _, r := range out {
			seqs = append(seqs, r.Seq)
		}
		mu.Unlock()
	}
	<-appendDone
	// One last append after the writer is done proves live delivery.
	if _, err := l.Append([][]byte{[]byte("final")}); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != total+1 {
		t.Fatalf("delivered %d records, want %d", len(seqs), total+1)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("position %d got seq %d: duplicate or gap across handoff", i, s)
		}
	}
}

// TestCloseDuringReplayChurn hammers concurrent Next/ReadFramed, Close,
// Append and Reap (run under -race in CI): a read racing Close ends
// with ErrClosed, never a torn cursor.
func TestCloseDuringReplayChurn(t *testing.T) {
	l, err := Open(t.TempDir(), Config{SegmentMaxBytes: 2048, MaxSegments: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 200, 20)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 200
		for {
			select {
			case <-stop:
				return
			default:
			}
			l.Append([][]byte{payloadFor(i)})
			l.Reap()
			i++
		}
	}()

	for round := 0; round < 40; round++ {
		var cwg sync.WaitGroup
		for k := 0; k < 4; k++ {
			c := l.NewCursor(0)
			framed := k%2 == 1
			cwg.Add(2)
			go func() {
				defer cwg.Done()
				var buf []Record
				dst := make([]byte, 4096)
				for {
					var err error
					n := 0
					if framed {
						n, _, _, err = c.ReadFramed(dst)
					} else {
						buf, err = c.Next(buf[:0], 32)
						n = len(buf)
					}
					if err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("read racing close: %v", err)
						}
						return // closed under us
					}
					if n == 0 {
						if c.AttachTail(func([]byte, uint64, int) {}) {
							return
						}
					}
				}
			}()
			go func() {
				defer cwg.Done()
				time.Sleep(time.Duration(round%3) * time.Millisecond)
				c.Close()
			}()
		}
		cwg.Wait()
	}
	close(stop)
	wg.Wait()
	if got := l.Stats().ActiveCursors; got != 0 {
		t.Fatalf("%d cursors leaked", got)
	}
}

// TestCursorClampsAfterReap parks a cursor at the tail, reaps history
// past it, and checks it resumes from the earliest retained record.
func TestCursorClampsAfterReap(t *testing.T) {
	l, err := Open(t.TempDir(), Config{SegmentMaxBytes: 1024, MaxSegments: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c := l.NewCursor(0) // tail of an empty log: pins nothing
	if out, err := c.Next(nil, 8); err != nil || len(out) != 0 {
		t.Fatalf("empty log cursor: %d records, err %v", len(out), err)
	}
	appendN(t, l, 0, 400, 10)
	if _, err := l.Reap(); err != nil {
		t.Fatal(err)
	}
	earliest := l.EarliestSeq()
	if earliest == 1 {
		t.Fatal("setup: nothing reaped")
	}
	out, err := c.Next(nil, 8)
	if err != nil || len(out) == 0 {
		t.Fatalf("cursor after reap: %d records, err %v", len(out), err)
	}
	if out[0].Seq != earliest {
		t.Fatalf("cursor resumed at %d, want earliest %d", out[0].Seq, earliest)
	}
	c.Close()
}

// drainFramed reads every committed record from seq from through
// ReadFramed with a dst of size bytes, growing dst when one record
// needs more, and checks each read's n/first/last against the bytes.
func drainFramed(t *testing.T, l *Log, from uint64, size int) []Record {
	t.Helper()
	c := l.NewCursor(from)
	defer c.Close()
	var out []Record
	dst := make([]byte, size)
	for {
		n, first, last, err := c.ReadFramed(dst)
		if errors.Is(err, io.ErrShortBuffer) {
			if n <= len(dst) || first != last {
				t.Fatalf("short buffer: need %d for dst %d, seqs %d..%d", n, len(dst), first, last)
			}
			dst = make([]byte, n)
			continue
		}
		if err != nil {
			t.Fatalf("read framed: %v", err)
		}
		if n == 0 {
			return out
		}
		seq := first
		for run := dst[:n]; len(run) > 0; seq++ {
			got, payload, rn, err := ParseRecord(run, 0)
			if err != nil || got != seq {
				t.Fatalf("framed run %d..%d: record seq %d (want %d), err %v", first, last, got, seq, err)
			}
			out = append(out, Record{Seq: got, Payload: bytes.Clone(payload)})
			run = run[rn:]
		}
		if seq != last+1 {
			t.Fatalf("framed run claims %d..%d, holds up to %d", first, last, seq-1)
		}
	}
}

// TestReadFramedMatchesNext reads one multi-segment log through both
// views of the cursor core and requires identical (seq, payload)
// sequences — with a dst smaller than most pairs of records (every
// read cuts a record at the boundary), one that lands mid-segment (the
// index skip-ahead leads the first read with records below the target)
// and one larger than a segment (every read ends on a segment roll).
func TestReadFramedMatchesNext(t *testing.T) {
	l, err := Open(t.TempDir(), Config{SegmentMaxBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 600, 13)
	if _, err := l.Append([][]byte{bytes.Repeat([]byte("L"), 900), {}, []byte("after")}); err != nil {
		t.Fatal(err)
	}
	if l.Stats().Segments < 10 {
		t.Fatalf("setup: expected many segments, got %d", l.Stats().Segments)
	}
	for _, from := range []uint64{0, 151, 603} {
		want := drain(t, l, from)
		for _, size := range []int{100, 1000, 1 << 20} {
			got := drainFramed(t, l, from, size)
			if len(got) != len(want) {
				t.Fatalf("from %d dst %d: framed read %d records, Next read %d", from, size, len(got), len(want))
			}
			for i := range want {
				if got[i].Seq != want[i].Seq || !bytes.Equal(got[i].Payload, want[i].Payload) {
					t.Fatalf("from %d dst %d: record %d differs (seq %d vs %d)", from, size, i, got[i].Seq, want[i].Seq)
				}
			}
		}
	}
}

// TestReadFramedOversizedSkip drops a record that does not fit with
// Skip — the last one of a sealed segment, the case where a stale
// position would strand the cursor — and still reaches the hand-off.
func TestReadFramedOversizedSkip(t *testing.T) {
	l, err := Open(t.TempDir(), Config{SegmentMaxBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	big := bytes.Repeat([]byte("B"), 5000)
	if _, err := l.Append([][]byte{[]byte("one"), []byte("two"), big}); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 3, 3) // rolls: the big record ends its segment
	c := l.NewCursor(0)
	defer c.Close()
	dst := make([]byte, 256)
	var seqs []uint64
	for {
		n, first, last, err := c.ReadFramed(dst)
		if errors.Is(err, io.ErrShortBuffer) {
			if n != HeaderLen+len(big) || first != 3 || last != 3 {
				t.Fatalf("oversized report: need %d seq %d..%d", n, first, last)
			}
			c.Skip()
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		for s := first; s <= last; s++ {
			seqs = append(seqs, s)
		}
	}
	if fmt.Sprint(seqs) != "[1 2 4 5 6]" {
		t.Fatalf("delivered %v, want every record but the skipped 3", seqs)
	}
	if !c.AttachTail(func([]byte, uint64, int) {}) {
		t.Fatal("cursor that skipped a record never reached the tail")
	}
}

// TestReadFramedClampsAfterReap is TestCursorClampsAfterReap through
// the framed view: a cursor idling at the tail while retention reaps
// past it resumes from the earliest retained record.
func TestReadFramedClampsAfterReap(t *testing.T) {
	l, err := Open(t.TempDir(), Config{SegmentMaxBytes: 1024, MaxSegments: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c := l.NewCursor(0)
	defer c.Close()
	dst := make([]byte, 512)
	if n, _, _, err := c.ReadFramed(dst); err != nil || n != 0 {
		t.Fatalf("empty log: n %d err %v", n, err)
	}
	appendN(t, l, 0, 400, 10)
	if _, err := l.Reap(); err != nil {
		t.Fatal(err)
	}
	earliest := l.EarliestSeq()
	if earliest == 1 {
		t.Fatal("setup: nothing reaped")
	}
	n, first, _, err := c.ReadFramed(dst)
	if err != nil || n == 0 || first != earliest {
		t.Fatalf("after reap: n %d first %d (earliest %d) err %v", n, first, earliest, err)
	}
}

// TestReadCorruptRecord flips one payload byte of the second record on
// disk: both views deliver the record before the damage, then report
// ErrCorrupt instead of the damaged record or anything after it.
func TestReadCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 3, 3)
	seg := filepath.Join(dir, fmt.Sprintf("%020d.seg", 1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[FramedLen(data)+HeaderLen+2] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	c := l.NewCursor(0)
	defer c.Close()
	dst := make([]byte, 4096)
	if n, first, last, err := c.ReadFramed(dst); err != nil || n != FramedLen(data) || first != 1 || last != 1 {
		t.Fatalf("framed read before the damage: n %d seqs %d..%d err %v", n, first, last, err)
	}
	if n, _, _, err := c.ReadFramed(dst); !errors.Is(err, ErrCorrupt) || n != 0 {
		t.Fatalf("framed read at the damage: n %d err %v, want ErrCorrupt", n, err)
	}

	c2 := l.NewCursor(0)
	defer c2.Close()
	recs, err := c2.Next(nil, 8)
	if err != nil || len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("Next before the damage: %d records err %v", len(recs), err)
	}
	if recs, err = c2.Next(recs, 8); !errors.Is(err, ErrCorrupt) || len(recs) != 1 {
		t.Fatalf("Next at the damage: %d records err %v, want ErrCorrupt", len(recs), err)
	}
}

// BenchmarkCursorReadFramed is the framed-read rung: 1200-byte records
// read 64 KiB at a time into one reused buffer.
func BenchmarkCursorReadFramed(b *testing.B) {
	l, err := Open(b.TempDir(), Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	batch := make([][]byte, 256)
	for i := range batch {
		batch[i] = bytes.Repeat([]byte{byte(i)}, 1200)
	}
	for i := 0; i < 40; i++ {
		if _, err := l.Append(batch); err != nil {
			b.Fatal(err)
		}
	}
	dst := make([]byte, 64<<10)
	b.SetBytes(int64(l.Stats().Bytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := l.NewCursor(0)
		for {
			n, _, _, err := c.ReadFramed(dst)
			if err != nil {
				b.Fatal(err)
			}
			if n == 0 {
				break
			}
		}
		c.Close()
	}
}
