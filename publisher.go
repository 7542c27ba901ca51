package globalmmcs

import (
	"time"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/event"
)

// PublishOption configures a Publisher at Session.Publisher.
type PublishOption func(*publishConfig)

type publishConfig struct {
	reliable      bool
	ttl           int
	batching      bool
	maxBatchBytes int
	flushInterval time.Duration
}

// WithReliable publishes every event on the reliable delivery profile
// (acknowledged and retransmitted hop by hop). Reliable events also
// force any pending batch onto the wire so signalling never queues
// behind media.
func WithReliable() PublishOption {
	return func(c *publishConfig) { c.reliable = true }
}

// WithTTL bounds the broker-hop budget of every published event
// (default 16). Lower it to keep flooded events local in peer-to-peer
// broker networks.
func WithTTL(hops int) PublishOption {
	return func(c *publishConfig) { c.ttl = hops }
}

// WithPublishBatching aggregates encoded events client-side and writes
// them to the broker in one system call per batch — the publish-side
// mirror of the broker's outbound batching, built for gateway-style
// senders pumping many streams. maxBatchBytes bounds a batch (0: 256
// KiB); flushInterval bounds how long a partial batch may linger (0:
// 1 ms). Batching only engages on wire transports; in-process clients
// keep per-event delivery.
func WithPublishBatching(maxBatchBytes int, flushInterval time.Duration) PublishOption {
	return func(c *publishConfig) {
		c.batching = true
		c.maxBatchBytes = maxBatchBytes
		c.flushInterval = flushInterval
	}
}

// Publisher is a send handle bound to one media channel of a session,
// returned by Session.Publisher. It is the publish-side counterpart of
// Stream: per-handle QoS (reliability, TTL, client-side batching) is
// fixed at creation with PublishOptions. Safe for concurrent use.
type Publisher struct {
	p        *broker.Publisher
	topic    string
	kind     event.Kind
	reliable bool
	ttl      uint8
}

// Publisher returns a send handle publishing raw payloads onto one of
// the session's media channels. Unlike Session.Sender it does not pace:
// it publishes exactly what it is given, as fast as it is given —
// combine with WithPublishBatching when relaying many streams.
func (s *Session) Publisher(kind MediaKind, opts ...PublishOption) (*Publisher, error) {
	stream, ok := s.stream(kind)
	if !ok {
		return nil, tag(ErrNoSuchMedia, errMediaKind(kind))
	}
	var cfg publishConfig
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	p := &Publisher{
		p: s.c.BC.Publisher(broker.PublisherConfig{
			Batching:      cfg.batching,
			MaxBatchBytes: cfg.maxBatchBytes,
			FlushInterval: cfg.flushInterval,
		}),
		topic:    stream.Topic,
		kind:     eventKindOf(kind),
		reliable: cfg.reliable,
	}
	if cfg.ttl > 0 && cfg.ttl <= 255 {
		p.ttl = uint8(cfg.ttl)
	}
	return p, nil
}

func eventKindOf(kind MediaKind) event.Kind {
	switch kind {
	case Audio, Video:
		return event.KindRTP
	case Chat:
		return event.KindChat
	case Control:
		return event.KindControl
	default:
		return event.KindData
	}
}

// Publish sends one payload (for Audio/Video channels, RTP wire bytes).
// A session's publisher is in-process: the event reaches the broker and
// every in-process subscriber by reference, so the payload belongs to
// them from here on — do not write to it after Publish, pass a fresh
// slice per call. (Only a wire transport copies it, into the frame.)
// With batching the event may linger up to the flush interval before
// hitting the wire; Flush forces it out.
func (p *Publisher) Publish(payload []byte) error {
	e := event.New(p.topic, p.kind, payload)
	e.Reliable = p.reliable
	if p.ttl > 0 {
		e.TTL = p.ttl
	}
	return wrapErr(p.p.Publish(e))
}

// Batched reports whether publishes aggregate into batched writes
// (false on in-process connections even when requested).
func (p *Publisher) Batched() bool { return p.p.Batched() }

// Flush forces any pending batch onto the wire.
func (p *Publisher) Flush() error { return wrapErr(p.p.Flush()) }

// Close flushes and retires the handle; the client connection stays
// open. Idempotent.
func (p *Publisher) Close() error { return wrapErr(p.p.Close()) }
