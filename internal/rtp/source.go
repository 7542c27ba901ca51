package rtp

import (
	"time"
)

// SourceStats accumulates reception statistics for one SSRC following
// RFC 3550 Appendix A: extended sequence numbers across wraps, loss
// counters, and the standard interarrival jitter estimator.
// Not safe for concurrent use.
type SourceStats struct {
	// ClockRate is the RTP timestamp rate in Hz; required for jitter.
	ClockRate int

	initialized bool
	baseSeq     uint16
	maxSeq      uint16
	cycles      uint32 // sequence wraps, shifted into the high 16 bits
	received    uint64
	badSeq      uint32
	probation   int

	transit int64   // last packet's transit time in timestamp units
	jitter  float64 // RFC 3550 interarrival jitter estimate, ts units
}

// maxDropout and maxMisorder mirror the RFC 3550 A.1 constants.
const (
	maxDropout  = 3000
	maxMisorder = 100
)

// Update records the arrival of a packet with the given RTP sequence
// number and timestamp at the given wall-clock arrival time.
func (s *SourceStats) Update(seq uint16, rtpTS uint32, arrival time.Time) {
	if !s.initialized {
		s.initialized = true
		s.baseSeq = seq
		s.maxSeq = seq
		s.received = 1
		s.updateJitter(rtpTS, arrival)
		return
	}
	delta := seq - s.maxSeq // uint16 arithmetic handles wrap
	switch {
	case delta == 0:
		// Duplicate of the newest packet; count it as received.
		s.received++
	case delta < maxDropout:
		if seq < s.maxSeq {
			s.cycles += 1 << 16
		}
		s.maxSeq = seq
		s.received++
	case uint16(-delta) < maxMisorder: //nolint:gosec // intentional wraparound
		// Late or reordered packet within tolerance.
		s.received++
	default:
		// A large jump; RFC suggests resync after two in a row. We resync
		// immediately for simplicity.
		s.baseSeq = seq
		s.maxSeq = seq
		s.cycles = 0
		s.received++
	}
	s.updateJitter(rtpTS, arrival)
}

func (s *SourceStats) updateJitter(rtpTS uint32, arrival time.Time) {
	if s.ClockRate <= 0 {
		return
	}
	arrivalTS := int64(float64(arrival.UnixNano()) * float64(s.ClockRate) / float64(time.Second))
	transit := arrivalTS - int64(rtpTS)
	if s.received > 1 {
		d := transit - s.transit
		if d < 0 {
			d = -d
		}
		s.jitter += (float64(d) - s.jitter) / 16
	}
	s.transit = transit
}

// ExtendedHighest returns the extended highest sequence number received.
func (s *SourceStats) ExtendedHighest() uint32 {
	return s.cycles | uint32(s.maxSeq)
}

// PacketsReceived returns the count of packets received (incl. duplicates).
func (s *SourceStats) PacketsReceived() uint64 { return s.received }

// ExpectedPackets returns how many packets the sender has emitted
// according to the sequence number span.
func (s *SourceStats) ExpectedPackets() uint64 {
	if !s.initialized {
		return 0
	}
	return uint64(s.ExtendedHighest()) - uint64(s.baseSeq) + 1
}

// CumulativeLost returns the total packets lost so far (can be negative
// with duplicates; clamped at zero).
func (s *SourceStats) CumulativeLost() uint64 {
	exp := s.ExpectedPackets()
	if exp <= s.received {
		return 0
	}
	return exp - s.received
}

// LossRate returns the lifetime loss fraction in [0,1].
func (s *SourceStats) LossRate() float64 {
	exp := s.ExpectedPackets()
	if exp == 0 {
		return 0
	}
	return float64(s.CumulativeLost()) / float64(exp)
}

// Jitter returns the interarrival jitter estimate in timestamp units.
func (s *SourceStats) Jitter() float64 { return s.jitter }

// JitterDuration converts the jitter estimate to a time.Duration.
func (s *SourceStats) JitterDuration() time.Duration {
	if s.ClockRate <= 0 {
		return 0
	}
	return time.Duration(s.jitter / float64(s.ClockRate) * float64(time.Second))
}
