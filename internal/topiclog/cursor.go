package topiclog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// cursorChunk is the default read size per Next call: big enough to
// amortize the syscall over a batch of records, small enough that the
// freshly allocated chunk (which returned payloads alias) stays cheap.
const cursorChunk = 128 << 10

// Cursor reads a log's records in order, batch at a time, and can
// hand off to live tail delivery exactly once via AttachTail. A
// cursor pins the segment it is reading so retention never deletes
// the data under it. Cursors are not safe for concurrent use by
// multiple goroutines (the owning replay pump is single-threaded);
// Close is safe to call concurrently with Next.
type Cursor struct {
	l *Log

	// next is the sequence the cursor wants to read next. Mutated only
	// by the reading goroutine; read under l.mu by AttachTail (called
	// from that same goroutine).
	next     uint64
	seg      *segment // pinned segment, nil when at tail; guarded by l.mu
	f        *os.File // read handle on seg; field guarded by l.mu
	off      int64    // byte offset into seg (-1 = locate via index); reader-owned
	need     int      // framed size of the record the last read cut off (0 = none)
	needSeq  uint64   // that record's sequence
	closed   bool     // guarded by l.mu
	attached bool     // guarded by l.mu
}

// NewCursor opens a cursor positioned at sequence from. from == 0 or
// any sequence older than the earliest retained record clamps to the
// earliest; a sequence at or past the tail positions the cursor at
// the tail (Next returns nothing until appends catch up).
func (l *Log) NewCursor(from uint64) *Cursor {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from == 0 || from < l.earliestLocked() {
		from = l.earliestLocked()
	}
	if from > l.nextSeq {
		from = l.nextSeq
	}
	c := &Cursor{l: l, next: from, off: -1}
	if seg := l.containingLocked(from); seg != nil {
		seg.pins++
		c.seg = seg
	}
	l.cursors++
	return c
}

// containingLocked returns the segment holding seq, or nil.
func (l *Log) containingLocked(seq uint64) *segment {
	for _, seg := range l.segs {
		if seg.size == 0 {
			continue
		}
		if seq >= seg.base && seq <= seg.last {
			return seg
		}
	}
	return nil
}

// Next appends up to max records to buf and returns it. An unchanged
// buf with a nil error means the cursor is at the committed tail. If
// retention reaped past the cursor's position while it idled at the
// tail, the cursor skips forward to the earliest retained record.
// Returned payloads alias a chunk allocated for this call — they stay
// valid across later Next calls but share the chunk's lifetime. Next is
// the record-level view over the read core it shares with ReadFramed.
func (c *Cursor) Next(buf []Record, max int) ([]Record, error) {
	if max <= 0 {
		max = 128
	}
	for {
		f, avail, err := c.position()
		if err != nil || avail == 0 {
			return buf, err
		}
		want := min(avail, cursorChunk)
		if int64(c.need) > want {
			want = min(avail, int64(c.need)) // the next record outgrows a default chunk
		}
		chunk := make([]byte, want)
		start, end, err := c.fill(f, chunk, max)
		if err != nil {
			return buf, err
		}
		for run := chunk[start:end]; len(run) > 0; {
			rn := FramedLen(run)
			buf = append(buf, Record{Seq: binary.BigEndian.Uint64(run), Payload: run[HeaderLen:rn:rn]})
			run = run[rn:]
		}
		if end > start {
			return buf, nil
		}
		// Nothing yielded yet (index skip-ahead or a spanning record):
		// keep reading.
	}
}

// ReadFramed reads committed records in their on-disk framing
// (seq|len|crc|payload, see AppendRecord) straight into dst, which must
// hold at least HeaderLen bytes: one pread, trimmed to whole records,
// each CRC-verified once; nothing else aliases dst. It returns the bytes
// filled and the first and last sequence they hold; n == 0 with a nil
// error means the cursor is at the committed tail. When the next record
// alone does not fit dst the error is io.ErrShortBuffer, n the size it
// needs and first == last == its sequence: retry with a larger dst, or
// drop the record with Skip. Everything else behaves as in Next.
func (c *Cursor) ReadFramed(dst []byte) (n int, first, last uint64, err error) {
	for {
		f, avail, err := c.position()
		if err != nil || avail == 0 {
			return 0, 0, 0, err
		}
		start, end, err := c.fill(f, dst[:min(int64(len(dst)), avail)], math.MaxInt)
		switch {
		case err != nil:
			return 0, 0, 0, err
		case end > start:
			// The sparse index lands at or before the target, so the first
			// read after a seek can lead with records below it (start > 0).
			copy(dst, dst[start:end])
			return end - start, binary.BigEndian.Uint64(dst), c.next - 1, nil
		case end == 0:
			return c.need, c.needSeq, c.needSeq, io.ErrShortBuffer
		}
	}
}

// Skip drops the record the last ReadFramed reported with
// io.ErrShortBuffer.
func (c *Cursor) Skip() {
	if c.need > 0 {
		c.off += int64(c.need)
		c.next = max(c.next, c.needSeq+1)
		c.need = 0
	}
}

// position resolves where the next read happens: under the log lock it
// clamps a cursor retention reaped past, pins the segment holding
// c.next, steps over a consumed segment and locates c.off; then it
// opens the read handle. avail is the committed byte count from c.off;
// 0 with a nil error means the committed tail (or an attached cursor).
func (c *Cursor) position() (f *os.File, avail int64, err error) {
	for {
		c.l.mu.Lock()
		if c.closed || c.l.closed {
			c.l.mu.Unlock()
			return nil, 0, ErrClosed
		}
		if c.attached {
			c.l.mu.Unlock()
			return nil, 0, nil
		}
		if c.seg == nil {
			if e := c.l.earliestLocked(); c.next < e {
				c.next = e
			}
			seg := c.l.containingLocked(c.next)
			if seg == nil {
				c.l.mu.Unlock()
				return nil, 0, nil // at tail
			}
			seg.pins++
			c.seg = seg
			c.off = -1
		}
		seg := c.seg
		committed := seg.size
		if c.off >= 0 && c.off >= committed && c.next > seg.last {
			// Segment fully consumed: unpin and advance. Reaping never
			// removes a segment after a pinned one, so the successor (if
			// sealed) is still present.
			seg.pins--
			c.seg = nil
			if c.f != nil {
				c.f.Close()
				c.f = nil
			}
			c.off = -1
			c.l.mu.Unlock()
			continue
		}
		if c.off < 0 {
			c.off = seg.locate(c.next)
		}
		path := seg.path
		f := c.f
		c.l.mu.Unlock()

		if c.off >= committed {
			return nil, 0, nil // caught up inside the active segment
		}
		if f == nil {
			nf, err := os.Open(path)
			if err != nil {
				return nil, 0, c.readErr("open", err)
			}
			c.l.mu.Lock()
			if c.closed || c.l.closed {
				c.l.mu.Unlock()
				nf.Close()
				return nil, 0, ErrClosed
			}
			c.f = nf
			c.l.mu.Unlock()
			f = nf
		}
		return f, committed - c.off, nil
	}
}

// fill preads committed bytes at c.off into dst and consumes the whole
// records they hold, at most max at or above c.next: each is
// bounds-checked and CRC-verified once, and c.off/c.next move past it.
// dst[start:end] is the run to yield; records below c.next (see
// ReadFramed) are consumed ahead of start. A record cut off by the end
// of dst leaves its framed size and sequence in c.need/c.needSeq (the
// read that will cover it: committed bytes are whole records).
func (c *Cursor) fill(f *os.File, dst []byte, max int) (start, end int, err error) {
	n, err := f.ReadAt(dst, c.off)
	if n == 0 {
		if err == nil {
			err = errors.New("empty read")
		}
		return 0, 0, c.readErr("read", err)
	}
	c.need = 0
	for count := 0; count < max && end < n; {
		seq, _, rn, perr := ParseRecord(dst[end:n])
		if errors.Is(perr, ErrShort) {
			c.need = HeaderLen
			if n-end >= HeaderLen {
				c.need, c.needSeq = FramedLen(dst[end:]), binary.BigEndian.Uint64(dst[end:])
			}
			break
		}
		if perr != nil {
			if count > 0 {
				break // yield the verified run; the next read reports the damage
			}
			return 0, 0, perr
		}
		c.off += int64(rn)
		end += rn
		if seq < c.next {
			start = end
			continue
		}
		count++
		c.next = seq + 1
	}
	return start, end, nil
}

// readErr reports a failed open or read, as ErrClosed when the cursor
// or log closed under the reader: Close unpins the segment, so the file
// may already be reaped through no fault of the data.
func (c *Cursor) readErr(op string, err error) error {
	c.l.mu.Lock()
	closed := c.closed || c.l.closed
	c.l.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return fmt.Errorf("topiclog: cursor %s: %w", op, err)
}

// AttachTail switches the cursor from history reads to live tail
// delivery. It succeeds only when the cursor has consumed every
// committed record (its position equals the log's next sequence);
// from then on every Append hands its framed batch to fn synchronously
// under the log lock, so no record is missed or duplicated across the
// handoff. fn must not call back into the log or cursor. After a
// successful attach, Next and ReadFramed return no more records; Close
// detaches.
func (c *Cursor) AttachTail(fn TailFunc) bool {
	c.l.mu.Lock()
	defer c.l.mu.Unlock()
	if c.closed || c.l.closed || c.attached {
		return false
	}
	if c.next != c.l.nextSeq {
		return false
	}
	c.l.tailers[c] = fn
	c.attached = true
	if c.seg != nil {
		c.seg.pins--
		c.seg = nil
	}
	if c.f != nil {
		c.f.Close()
		c.f = nil
	}
	return true
}

// Close releases the cursor: unpins its segment, closes its read
// handle, and detaches its tailer if attached. Idempotent, and safe
// to call concurrently with a reader blocked in Next.
func (c *Cursor) Close() {
	c.l.mu.Lock()
	defer c.l.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	delete(c.l.tailers, c)
	if c.seg != nil {
		c.seg.pins--
		c.seg = nil
	}
	if c.f != nil {
		c.f.Close()
		c.f = nil
	}
	c.l.cursors--
}
