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
}

// Receiver consumes wrapped RTP events and accumulates reception
// statistics over packets in arrival order: a packet is measured when
// it is handled and retained by nothing afterwards. HandleEvent may be
// called from one goroutine at a time; snapshot accessors are safe to
// call concurrently.
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
}

// NewReceiver creates a measuring receiver.
func NewReceiver(cfg ReceiverConfig) *Receiver {
	r := &Receiver{cfg: cfg}
	r.stats.ClockRate = cfg.ClockRate
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
	r.processLocked(&p, e.Timestamp, now)
}

// processLocked runs the measurement pipeline for one packet.
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
