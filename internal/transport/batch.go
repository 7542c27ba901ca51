package transport

import (
	"github.com/globalmmcs/globalmmcs/internal/event"
)

// FrameConn is a Conn that can transmit pre-encoded event frames, many
// per system call. Wire transports (tcp, udp) implement it; in-process
// pipes do not (they move decoded events by pointer, so there is nothing
// to batch). A broker session writer detects FrameConn once at startup
// and switches from per-event Send to encode-once, vectored output.
type FrameConn interface {
	Conn
	// SendFrames transmits the given encoded events. Implementations
	// issue as few system calls as possible (one vectored write for a
	// stream transport, one datagram per frame for a datagram
	// transport). The frame slices are read-only and must not be
	// retained after the call returns.
	SendFrames(frames [][]byte) error
}

// BurstConn is a Conn whose receive path can yield every event already
// buffered in one call — the inbound mirror of SendFrames. Broker and
// client readers receive through RecvBurst, amortizing routing and
// queueing work across everything one read (or one batch from the
// peer's Batcher) delivered.
type BurstConn interface {
	Conn
	// RecvBurst appends decoded events to dst and returns the extended
	// slice. It blocks until at least one event is available, then
	// drains — without further blocking — whatever is already decodable,
	// up to max events total. Like Recv it must be called from a single
	// goroutine; errors are returned only when no events were decoded
	// (a burst cut short by an error resurfaces it on the next call).
	RecvBurst(dst []*event.Event, max int) ([]*event.Event, error)
}

// RecvBurst receives the next burst from c under the BurstConn.RecvBurst
// contract: c's own burst path when it has one, otherwise one Recv
// returned as a burst of one.
func RecvBurst(c Conn, dst []*event.Event, max int) ([]*event.Event, error) {
	if bc, ok := c.(BurstConn); ok {
		return bc.RecvBurst(dst, max)
	}
	e, err := c.Recv()
	if err != nil {
		return dst, err
	}
	return append(dst, e), nil
}

// SendEvents transmits events in order: in one call when c is an
// EventBatchConn, otherwise one Send per event.
func SendEvents(c Conn, events []*event.Event) error {
	if bc, ok := c.(EventBatchConn); ok {
		return bc.SendEvents(events)
	}
	for _, e := range events {
		if err := c.Send(e); err != nil {
			return err
		}
	}
	return nil
}

// EventBatchConn is a Conn that can accept many decoded events per send
// call. In-process pipes implement it (events move by pointer, so a
// "batch" is one bookkeeping call rather than one per event); shaped
// conns forward it, forwarding survivors in one call.
type EventBatchConn interface {
	Conn
	// SendEvents transmits the events in order. The slice is read-only
	// and must not be retained after the call returns.
	SendEvents(events []*event.Event) error
}

// TryEventBatchConn is an EventBatchConn whose batch sends can also be
// attempted without blocking: TrySendEvents transmits the largest
// prefix the conn can absorb right now — nothing unless at least min
// events fit — and reports how many were sent (0 with a nil error =
// not enough room, keep and retry). Shared writer pools require this
// on conns that otherwise block on consumer backpressure — one stalled
// send would head-of-line-block every session the pool goroutine
// serves.
type TryEventBatchConn interface {
	EventBatchConn
	TrySendEvents(events []*event.Event, min int) (int, error)
}

// Batcher accumulates encoded event frames destined for one FrameConn
// and flushes them with a single vectored write. It is the broker data
// path's outbound aggregation buffer: the session writer drains its send
// queue into the batcher and flushes on size, on lane policy, or on
// idle. Not safe for concurrent use — each session writer owns one.
type Batcher struct {
	fc       FrameConn
	frames   [][]byte
	bytes    int
	maxBytes int
	// arena is the reusable backing store of AddEventInPlace frames; it
	// is reset at each flush, so steady-state in-place batching performs
	// no per-event allocation.
	arena []byte
}

// DefaultMaxBatchBytes bounds a batch when callers pass maxBytes <= 0.
// 256 KiB amortises syscall cost across ~200 MTU-sized media events
// while keeping per-session buffering bounded.
const DefaultMaxBatchBytes = 256 << 10

// NewBatcher creates a batcher writing to fc. maxBytes <= 0 uses
// DefaultMaxBatchBytes.
func NewBatcher(fc FrameConn, maxBytes int) *Batcher {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBatchBytes
	}
	return &Batcher{fc: fc, maxBytes: maxBytes}
}

// Add queues one encoded frame, flushing first if the batch would exceed
// the size bound. The frame must stay immutable until after Flush.
func (b *Batcher) Add(frame []byte) error {
	if b.bytes > 0 && b.bytes+len(frame) > b.maxBytes {
		if err := b.Flush(); err != nil {
			return err
		}
	}
	b.frames = append(b.frames, frame)
	b.bytes += len(frame)
	if b.bytes >= b.maxBytes {
		return b.Flush()
	}
	return nil
}

// AddEvent marshals e and queues the encoding.
func (b *Batcher) AddEvent(e *event.Event) error {
	return b.Add(event.Marshal(e))
}

// AddEventInPlace marshals e into the batcher's reusable arena — no
// per-event allocation in steady state — and queues the frame. When the
// new frame would overflow the size bound, the pending batch is flushed
// first (so the arena only ever holds frames of the current batch).
func (b *Batcher) AddEventInPlace(e *event.Event) error {
	// Size estimate mirrors event.Marshal's; headers (rare on the media
	// publish path) may push past it, which only makes a batch slightly
	// larger than the bound.
	need := 64 + len(e.Topic) + len(e.Source) + len(e.Payload)
	if b.bytes > 0 && b.bytes+need > b.maxBytes {
		if err := b.Flush(); err != nil {
			return err
		}
	}
	start := len(b.arena)
	b.arena = event.AppendMarshal(b.arena, e)
	frame := b.arena[start:len(b.arena):len(b.arena)]
	b.frames = append(b.frames, frame)
	b.bytes += len(frame)
	if b.bytes >= b.maxBytes {
		return b.Flush()
	}
	return nil
}

// Pending returns the number of queued frames awaiting Flush.
func (b *Batcher) Pending() int { return len(b.frames) }

// PendingBytes returns the byte size of the queued frames.
func (b *Batcher) PendingBytes() int { return b.bytes }

// Flush writes all queued frames in one vectored send. A flush with no
// pending frames is a no-op.
func (b *Batcher) Flush() error {
	if len(b.frames) == 0 {
		return nil
	}
	err := b.fc.SendFrames(b.frames)
	for i := range b.frames {
		b.frames[i] = nil
	}
	b.frames = b.frames[:0]
	b.bytes = 0
	b.arena = b.arena[:0]
	return err
}
