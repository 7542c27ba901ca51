package media

import (
	"sync"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/metrics"
	"github.com/globalmmcs/globalmmcs/internal/rtp"
)

// ReceiverConfig selects what a measuring receiver records.
type ReceiverConfig struct {
	// ClockRate is the RTP timestamp rate of the measured stream.
	// Required for the RFC 3550 jitter estimator.
	ClockRate int
	// DelaySeries, if set, records one-way delay in milliseconds indexed
	// by packet number (the Figure 3 top panel).
	DelaySeries *metrics.Series
	// JitterSeries, if set, records the running RFC 3550 jitter estimate
	// in milliseconds indexed by packet number (the Figure 3 bottom
	// panel).
	JitterSeries *metrics.Series
	// DelayHistogram, if set, accumulates delays for percentile queries.
	DelayHistogram *metrics.Histogram
	// VerifyPayloads enables integrity checking of fillPayload content.
	VerifyPayloads bool
	// ReorderDepth, when positive, re-sequences out-of-order arrivals
	// through a playout jitter buffer of that capacity before statistics
	// run. Buffered packets deep-copy their payloads: a decoded event
	// from the transport receive path aliases a shared arena chunk, and
	// a packet parked in the jitter buffer would otherwise pin the whole
	// chunk (up to 256 KiB) for as long as it waits.
	ReorderDepth int
}

// Receiver consumes wrapped RTP events and accumulates reception
// statistics. HandleEvent may be called from one goroutine at a time;
// snapshot accessors are safe to call concurrently.
type Receiver struct {
	cfg ReceiverConfig

	mu         sync.Mutex
	stats      rtp.SourceStats
	baseExt    uint32
	haveBase   bool
	received   uint64
	bytes      uint64
	corrupted  uint64
	delay      metrics.Welford
	lastActive time.Time

	// Reorder state (ReorderDepth > 0): the playout jitter buffer plus
	// per-packet arrival metadata keyed by sequence number.
	jb      *rtp.JitterBuffer
	pending map[uint16]arrival
}

// arrival is the reception metadata of a packet parked in the reorder
// buffer, so statistics computed after re-sequencing still reflect the
// true arrival instant.
type arrival struct {
	sentAt  int64
	arrived time.Time
}

// NewReceiver creates a measuring receiver.
func NewReceiver(cfg ReceiverConfig) *Receiver {
	r := &Receiver{cfg: cfg}
	r.stats.ClockRate = cfg.ClockRate
	if cfg.ReorderDepth > 0 {
		r.jb = rtp.NewJitterBuffer(cfg.ReorderDepth)
		r.pending = make(map[uint16]arrival, cfg.ReorderDepth)
	}
	return r
}

// HandleEvent processes one wrapped RTP event.
func (r *Receiver) HandleEvent(e *event.Event) {
	if e.Kind != event.KindRTP {
		return
	}
	var p rtp.Packet
	if err := p.Unmarshal(e.Payload); err != nil {
		r.mu.Lock()
		r.corrupted++
		r.mu.Unlock()
		return
	}
	now := time.Now()

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.jb == nil {
		r.processLocked(&p, e.Timestamp, now)
		return
	}
	if r.jb.Push(&p) {
		r.pending[p.SequenceNumber] = arrival{sentAt: e.Timestamp, arrived: now}
	}
	for {
		q := r.jb.Pop()
		if q == nil {
			break
		}
		meta := r.pending[q.SequenceNumber]
		delete(r.pending, q.SequenceNumber)
		r.processLocked(q, meta.sentAt, meta.arrived)
	}
	// Detach any packet that stays parked behind a gap: its payload
	// aliases e.Payload, which may alias a transport arena chunk shared
	// with hundreds of other events, and a parked packet would pin the
	// whole chunk. Packets processed above were consumed synchronously,
	// so the common in-order case pays no copy.
	if _, parked := r.pending[p.SequenceNumber]; parked {
		p.Payload = append([]byte(nil), p.Payload...)
	}
}

// Flush drains any packets still parked in the reorder buffer (gaps
// that will never fill once the stream ends). No-op without reordering.
func (r *Receiver) Flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.jb == nil {
		return
	}
	for {
		q := r.jb.Drain()
		if q == nil {
			return
		}
		meta := r.pending[q.SequenceNumber]
		delete(r.pending, q.SequenceNumber)
		r.processLocked(q, meta.sentAt, meta.arrived)
	}
}

// processLocked runs the measurement pipeline for one in-order packet.
// sentAt is the publish timestamp, arrived the reception instant.
func (r *Receiver) processLocked(p *rtp.Packet, sentAt int64, arrived time.Time) {
	delayMs := float64(arrived.UnixNano()-sentAt) / 1e6
	r.stats.Update(p.SequenceNumber, p.Timestamp, arrived)
	r.received++
	r.bytes += uint64(len(p.Payload))
	r.delay.Observe(delayMs)
	r.lastActive = arrived
	if r.cfg.VerifyPayloads {
		if err := VerifyPayload(p); err != nil {
			r.corrupted++
		}
	}
	ext := r.stats.ExtendedHighest()
	if !r.haveBase {
		r.haveBase = true
		r.baseExt = ext
	}
	idx := int(ext - r.baseExt)
	if r.cfg.DelaySeries != nil {
		r.cfg.DelaySeries.Record(idx, delayMs)
	}
	if r.cfg.JitterSeries != nil {
		jitterMs := float64(r.stats.JitterDuration()) / float64(time.Millisecond)
		r.cfg.JitterSeries.Record(idx, jitterMs)
	}
	if r.cfg.DelayHistogram != nil {
		r.cfg.DelayHistogram.Observe(delayMs)
	}
}

// Snapshot is a point-in-time summary of a receiver.
type Snapshot struct {
	Received    uint64
	Bytes       uint64
	Corrupted   uint64
	Lost        uint64
	LossRate    float64
	MeanDelayMs float64
	MaxDelayMs  float64
	JitterMs    float64
}

// Snapshot returns the receiver's statistics.
func (r *Receiver) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Snapshot{
		Received:    r.received,
		Bytes:       r.bytes,
		Corrupted:   r.corrupted,
		Lost:        r.stats.CumulativeLost(),
		LossRate:    r.stats.LossRate(),
		MeanDelayMs: r.delay.Mean(),
		MaxDelayMs:  r.delay.Max(),
		JitterMs:    float64(r.stats.JitterDuration()) / float64(time.Millisecond),
	}
}
