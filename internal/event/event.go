// Package event defines the NaradaBrokering-style event that all
// Global-MMCS traffic — RTP media, XGSP signalling, chat, presence — is
// wrapped in while it transits the broker network, together with a compact
// binary wire codec.
package event

import (
	"errors"
	"fmt"
	"time"
)

// Kind classifies the payload so edges can dispatch without inspecting it.
type Kind uint8

// Event kinds. Enums start at 1 so the zero value is invalid and cannot be
// confused with a real kind.
const (
	KindData     Kind = iota + 1 // opaque application payload
	KindRTP                      // payload is a marshalled RTP packet
	KindRTCP                     // payload is a marshalled RTCP compound packet
	KindControl                  // XGSP signalling XML
	KindChat                     // instant-messaging XML
	KindPresence                 // presence update XML
	kindMax
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindRTP:
		return "rtp"
	case KindRTCP:
		return "rtcp"
	case KindControl:
		return "control"
	case KindChat:
		return "chat"
	case KindPresence:
		return "presence"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Valid reports whether k is a defined kind.
func (k Kind) Valid() bool { return k >= KindData && k < kindMax }

// DefaultTTL is the hop budget given to events that do not set one.
// It bounds flooding in peer-to-peer routing mode.
const DefaultTTL = 16

// Event is one unit of traffic in the broker network.
type Event struct {
	// ID is unique per Source; together (Source, ID) identify the event
	// for duplicate suppression in peer-to-peer routing.
	ID uint64
	// Source identifies the publishing client or broker.
	Source string
	// Topic is the hierarchical destination topic, e.g.
	// "/xgsp/session/42/video".
	Topic string
	// Kind classifies the payload.
	Kind Kind
	// TTL is the remaining hop budget; brokers decrement it on forward.
	TTL uint8
	// Reliable marks the event for the reliable delivery profile
	// (acknowledged, retransmitted); media events leave it false.
	Reliable bool
	// Timestamp is the publish wall-clock time in nanoseconds since the
	// Unix epoch. Receivers co-located with the sender use it for one-way
	// delay measurement.
	Timestamp int64
	// Headers carries optional string metadata (kept small on purpose).
	Headers map[string]string
	// Payload is the application data.
	Payload []byte
	// RSeq is the hop-by-hop reliable delivery sequence number, 0 when
	// the event is not rseq-tagged. It rides a fixed trailing field of
	// the wire encoding, so a broker fanning a reliable event out to many
	// sessions patches 8 bytes per target (Frame.WithRSeq) instead of
	// cloning and re-marshalling per target.
	RSeq uint64
	// Mask is the mesh serve-mask: on a copy forwarded between brokers it
	// names (as hashed origin bits) which downstream subscriber origins
	// this copy is responsible for, so routed dissemination follows one
	// spanning tree instead of every equal-cost path. 0 — the value on
	// all client-facing traffic — means unconstrained (serve every
	// matching origin). Like RSeq it rides a fixed trailing wire field,
	// so per-link re-masking is an 8-byte patch (Frame.WithMask), not a
	// re-marshal.
	Mask uint64
}

// New returns an event for topic with the given kind and payload,
// stamped with the current time and the default TTL. ID/Source are
// assigned by the publishing client.
func New(topic string, kind Kind, payload []byte) *Event {
	return &Event{
		Topic:     topic,
		Kind:      kind,
		TTL:       DefaultTTL,
		Timestamp: time.Now().UnixNano(),
		Payload:   payload,
	}
}

// Key identifies an event globally for duplicate suppression.
type Key struct {
	Source string
	ID     uint64
}

// Key returns the event's global identity.
func (e *Event) Key() Key { return Key{Source: e.Source, ID: e.ID} }

// Clone returns a deep copy; brokers forward events by reference, so an
// edge that must mutate (e.g. a gateway rewriting headers) clones first.
func (e *Event) Clone() *Event {
	c := *e
	if e.Headers != nil {
		c.Headers = make(map[string]string, len(e.Headers))
		for k, v := range e.Headers {
			c.Headers[k] = v
		}
	}
	if e.Payload != nil {
		c.Payload = make([]byte, len(e.Payload))
		copy(c.Payload, e.Payload)
	}
	return &c
}

// Validate reports structural problems that should stop an event at the
// edge of the system.
func (e *Event) Validate() error {
	switch {
	case e.Topic == "":
		return errors.New("event: empty topic")
	case !e.Kind.Valid():
		return fmt.Errorf("event: invalid kind %d", e.Kind)
	case len(e.Topic) > MaxTopicLen:
		return fmt.Errorf("event: topic length %d exceeds %d", len(e.Topic), MaxTopicLen)
	case len(e.Payload) > MaxPayloadLen:
		return fmt.Errorf("event: payload length %d exceeds %d", len(e.Payload), MaxPayloadLen)
	case len(e.Headers) > MaxHeaders:
		return fmt.Errorf("event: %d headers exceed %d", len(e.Headers), MaxHeaders)
	}
	return nil
}

// String renders a short description for logs.
func (e *Event) String() string {
	return fmt.Sprintf("event{%s #%d %s %s %dB ttl=%d}",
		e.Source, e.ID, e.Kind, e.Topic, len(e.Payload), e.TTL)
}
