package topiclog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrClosed reports an operation on a closed log or cursor.
var ErrClosed = errors.New("topiclog: closed")

// Config bounds a log's segments and retention. Zero values mean
// "use the default" for sizes and "unlimited" for retention caps.
type Config struct {
	// SegmentMaxBytes rolls the active segment once it reaches this
	// size (default 4 MiB).
	SegmentMaxBytes int64
	// SegmentMaxAge rolls the active segment once its first record is
	// this old (0 disables time-based rolling).
	SegmentMaxAge time.Duration
	// MaxSegments caps retained segments; Reap removes the oldest
	// beyond the cap (0 = unlimited). The active segment never reaps.
	MaxSegments int
	// MaxBytes caps the log's total on-disk size (0 = unlimited).
	MaxBytes int64
	// MaxRecordBytes bounds one record's payload (default
	// DefaultMaxRecordBytes).
	MaxRecordBytes int
}

func (c Config) withDefaults() Config {
	if c.SegmentMaxBytes <= 0 {
		c.SegmentMaxBytes = 4 << 20
	}
	if c.MaxRecordBytes <= 0 {
		c.MaxRecordBytes = DefaultMaxRecordBytes
	}
	return c
}

// Record is one log entry: a contiguous sequence number and the
// payload bytes as appended.
type Record struct {
	Seq     uint64
	Payload []byte
}

// Stats is a point-in-time snapshot of a log.
type Stats struct {
	Segments      int
	Bytes         int64
	NextSeq       uint64
	EarliestSeq   uint64
	Appended      uint64
	Reaped        uint64
	ActiveCursors int
}

// indexStride spaces sparse index entries: one {seq, offset} pair per
// this many segment bytes, so a cursor seeking mid-segment scans at
// most a stride.
const indexStride = 32 << 10

type indexEnt struct {
	seq uint64
	off int64
}

// segment is one on-disk log file: records base..last, contiguous.
// All fields are guarded by the owning Log's mutex.
type segment struct {
	path    string
	base    uint64 // first sequence in the segment
	last    uint64 // last sequence in the segment (>= base once non-empty)
	size    int64  // committed bytes (whole records only)
	created time.Time
	index   []indexEnt // sparse; always covers {base, 0} implicitly
	pins    int        // cursors currently reading this segment
}

// locate returns the greatest indexed offset at or before seq.
func (s *segment) locate(seq uint64) int64 {
	lo := int64(0)
	for _, ent := range s.index {
		if ent.seq > seq {
			break
		}
		lo = ent.off
	}
	return lo
}

// Log is a segmented append-only record log on disk. Appends are
// batched (one file write per call) and synchronously fan out to
// attached tail cursors, which is what makes the cursor→live handoff
// exactly-once: AttachTail succeeds only when the cursor has consumed
// every committed record, and from then on the append lock is the
// serialization point between history and live delivery.
type Log struct {
	dir string
	cfg Config

	mu       sync.Mutex
	segs     []*segment
	active   *os.File // write handle for the last segment, opened lazily
	nextSeq  uint64
	appended uint64
	reaped   uint64
	cursors  int
	tailers  map[*Cursor]TailFunc
	scratch  []byte
	writeErr error // sticky: a failed append poisons the log
	closed   bool
}

// Open opens (creating if needed) the log stored in dir, recovering
// from a torn tail: a trailing partial or corrupt record — the
// signature of a crash mid-append — is truncated away, preserving
// every record before it. Segments left empty by truncation are
// removed, as are segments whose sequence run no longer follows the
// recovered prefix.
func Open(dir string, cfg Config) (*Log, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("topiclog: %w", err)
	}
	l := &Log{
		dir:     dir,
		cfg:     cfg,
		nextSeq: 1,
		tailers: make(map[*Cursor]TailFunc),
	}
	if err := l.scan(); err != nil {
		return nil, err
	}
	return l, nil
}

// scan loads the segment set from disk, recovering torn tails.
func (l *Log) scan() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("topiclog: %w", err)
	}
	var segs []*segment
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".seg") {
			continue
		}
		base, err := strconv.ParseUint(strings.TrimSuffix(name, ".seg"), 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, &segment{path: filepath.Join(l.dir, name), base: base})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })

	expect := uint64(0) // next segment must start here (0 = first kept segment)
	kept := segs[:0]
	dropRest := false
	for _, seg := range segs {
		if dropRest || (expect != 0 && seg.base != expect) {
			// A gap after a truncated tear: records beyond the tear are
			// unreachable by sequence, so the suffix is removed.
			dropRest = true
			os.Remove(seg.path)
			continue
		}
		if err := l.recoverSegment(seg); err != nil {
			return err
		}
		if seg.size == 0 {
			os.Remove(seg.path)
			dropRest = true
			continue
		}
		kept = append(kept, seg)
		expect = seg.last + 1
	}
	l.segs = kept
	if n := len(kept); n > 0 {
		l.nextSeq = kept[n-1].last + 1
	}
	return nil
}

// recoverSegment scans one segment file, building its sparse index
// and truncating at the first torn or corrupt record.
func (l *Log) recoverSegment(seg *segment) error {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return fmt.Errorf("topiclog: %w", err)
	}
	if info, err := os.Stat(seg.path); err == nil {
		seg.created = info.ModTime()
	} else {
		seg.created = time.Now()
	}
	off := 0
	expect := seg.base
	lastIdx := int64(0)
	for off < len(data) {
		seq, _, n, perr := ParseRecord(data[off:], l.cfg.MaxRecordBytes)
		if perr != nil || seq != expect {
			break // torn or corrupt tail: truncate here
		}
		if off > 0 && int64(off)-lastIdx >= indexStride {
			seg.index = append(seg.index, indexEnt{seq: seq, off: int64(off)})
			lastIdx = int64(off)
		}
		expect++
		off += n
	}
	if off < len(data) {
		if err := os.Truncate(seg.path, int64(off)); err != nil {
			return fmt.Errorf("topiclog: truncating torn tail: %w", err)
		}
	}
	seg.size = int64(off)
	if expect > seg.base {
		seg.last = expect - 1
	}
	return nil
}

func segPath(dir string, base uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%020d.seg", base))
}

// rollLocked seals the active segment and starts a new one at
// nextSeq. Called with l.mu held.
func (l *Log) rollLocked() error {
	if l.active != nil {
		l.active.Close()
		l.active = nil
	}
	path := segPath(l.dir, l.nextSeq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	l.active = f
	l.segs = append(l.segs, &segment{
		path:    path,
		base:    l.nextSeq,
		created: time.Now(),
	})
	return nil
}

// needRollLocked reports whether the active segment must roll before
// the next append. A segment only rolls once it holds at least one
// record.
func (l *Log) needRollLocked() bool {
	n := len(l.segs)
	if n == 0 {
		return true
	}
	seg := l.segs[n-1]
	if seg.size == 0 {
		return false
	}
	if seg.size >= l.cfg.SegmentMaxBytes {
		return true
	}
	if l.cfg.SegmentMaxAge > 0 && time.Since(seg.created) >= l.cfg.SegmentMaxAge {
		return true
	}
	return false
}

// TailFunc receives one appended batch on an attached cursor: run is
// the batch exactly as written to disk — count framed records
// (seq|len|crc|payload) with consecutive sequences from first. It is
// the log's own write buffer, valid only for the duration of the call.
type TailFunc func(run []byte, first uint64, count int)

// Append appends payloads as consecutive records in one file write
// and returns the sequence of the first. Attached tail cursors are
// handed the framed batch synchronously, under the log lock, before
// Append returns (see TailFunc). A write failure poisons the log: the
// error is sticky and later appends fail fast.
func (l *Log) Append(payloads [][]byte) (first uint64, err error) {
	if len(payloads) == 0 {
		return 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.writeErr != nil {
		return 0, l.writeErr
	}
	for _, p := range payloads {
		if len(p) > l.cfg.MaxRecordBytes {
			return 0, fmt.Errorf("topiclog: record payload %d exceeds limit %d", len(p), l.cfg.MaxRecordBytes)
		}
	}
	if l.needRollLocked() {
		if err := l.rollLocked(); err != nil {
			l.writeErr = fmt.Errorf("topiclog: %w", err)
			return 0, l.writeErr
		}
	}
	seg := l.segs[len(l.segs)-1]
	if l.active == nil {
		f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			l.writeErr = fmt.Errorf("topiclog: %w", err)
			return 0, l.writeErr
		}
		l.active = f
	}

	first = l.nextSeq
	buf := l.scratch[:0]
	seq := first
	type idxMark struct {
		seq uint64
		off int64
	}
	var marks []idxMark
	lastIdx := int64(0)
	if n := len(seg.index); n > 0 {
		lastIdx = seg.index[n-1].off
	}
	for _, p := range payloads {
		off := seg.size + int64(len(buf))
		if off > 0 && off-lastIdx >= indexStride {
			marks = append(marks, idxMark{seq: seq, off: off})
			lastIdx = off
		}
		buf = AppendRecord(buf, seq, p)
		seq++
	}
	l.scratch = buf[:0]

	if _, err := l.active.Write(buf); err != nil {
		// The tail may now be torn; recovery at next open will truncate
		// it. Poison the log so no later append writes past the tear.
		l.writeErr = fmt.Errorf("topiclog: append: %w", err)
		return 0, l.writeErr
	}
	seg.size += int64(len(buf))
	seg.last = seq - 1
	for _, m := range marks {
		seg.index = append(seg.index, indexEnt{seq: m.seq, off: m.off})
	}
	l.nextSeq = seq
	l.appended += uint64(len(payloads))

	for _, fn := range l.tailers {
		fn(buf, first, len(payloads))
	}
	return first, nil
}

// NextSeq returns the sequence the next appended record will get.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// EarliestSeq returns the oldest retained sequence (== NextSeq when
// the log is empty).
func (l *Log) EarliestSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.earliestLocked()
}

func (l *Log) earliestLocked() uint64 {
	if len(l.segs) == 0 {
		return l.nextSeq
	}
	return l.segs[0].base
}

// Stats snapshots the log.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Stats{
		Segments:      len(l.segs),
		NextSeq:       l.nextSeq,
		EarliestSeq:   l.earliestLocked(),
		Appended:      l.appended,
		Reaped:        l.reaped,
		ActiveCursors: l.cursors,
	}
	for _, seg := range l.segs {
		s.Bytes += seg.size
	}
	return s
}

// Reap removes the oldest segments until the log fits its retention
// caps, and returns how many were removed. The active segment and any
// segment pinned by a cursor are never removed; reaping stops at the
// first pinned segment so a replaying cursor never loses the data
// under it.
func (l *Log) Reap() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	for len(l.segs) > 1 && l.overCapLocked() {
		head := l.segs[0]
		if head.pins > 0 {
			break
		}
		if err := os.Remove(head.path); err != nil && !os.IsNotExist(err) {
			return removed, fmt.Errorf("topiclog: reap: %w", err)
		}
		l.segs = l.segs[1:]
		l.reaped++
		removed++
	}
	return removed, nil
}

func (l *Log) overCapLocked() bool {
	if l.cfg.MaxSegments > 0 && len(l.segs) > l.cfg.MaxSegments {
		return true
	}
	if l.cfg.MaxBytes > 0 {
		var total int64
		for _, seg := range l.segs {
			total += seg.size
		}
		if total > l.cfg.MaxBytes {
			return true
		}
	}
	return false
}

// Close closes the log's write handle. Open cursors keep their own
// read handles and should be closed by their owners.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.tailers = map[*Cursor]TailFunc{}
	if l.active != nil {
		err := l.active.Close()
		l.active = nil
		return err
	}
	return nil
}
