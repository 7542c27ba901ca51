package globalmmcs

import (
	"fmt"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/event"
)

// PublishOption configures a Publisher at Session.Publisher.
type PublishOption func(*publishConfig)

type publishConfig struct {
	reliable bool
	ttl      int
}

// WithReliable publishes every event on the reliable delivery profile
// (acknowledged and retransmitted hop by hop).
func WithReliable() PublishOption {
	return func(c *publishConfig) { c.reliable = true }
}

// WithTTL bounds the broker-hop budget of every published event
// (default 16). Lower it to keep flooded events local in peer-to-peer
// broker networks. hops must lie in 1..255; Session.Publisher rejects
// any other value with ErrInvalidRequest.
func WithTTL(hops int) PublishOption {
	return func(c *publishConfig) { c.ttl = hops }
}

// Publisher is a send handle bound to one media channel of a session,
// returned by Session.Publisher. It is the publish-side counterpart of
// Stream: per-handle QoS (reliability, TTL) is fixed at creation with
// PublishOptions. Safe for concurrent use.
type Publisher struct {
	p        *broker.Publisher
	topic    string
	kind     event.Kind
	reliable bool
	ttl      uint8
}

// Publisher returns a send handle publishing raw payloads onto one of
// the session's media channels. Unlike Session.Sender it does not pace:
// it publishes exactly what it is given, as fast as it is given.
func (s *Session) Publisher(kind MediaKind, opts ...PublishOption) (*Publisher, error) {
	stream, ok := s.stream(kind)
	if !ok {
		return nil, tag(ErrNoSuchMedia, errMediaKind(kind))
	}
	cfg := publishConfig{ttl: int(event.DefaultTTL)}
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	if cfg.ttl < 1 || cfg.ttl > 255 {
		return nil, tag(ErrInvalidRequest, fmt.Errorf("globalmmcs: TTL %d outside 1..255", cfg.ttl))
	}
	return &Publisher{
		p:        s.c.bc.Publisher(broker.PublisherConfig{}),
		topic:    stream.Topic,
		kind:     eventKindOf(kind),
		reliable: cfg.reliable,
		ttl:      uint8(cfg.ttl),
	}, nil
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
// The payload belongs to the system from here on — do not write to it
// after Publish, pass a fresh slice per call. An in-process client's
// event reaches the broker and every in-process subscriber by
// reference; a dialed client may hold it in its outage buffer until
// the link is back.
func (p *Publisher) Publish(payload []byte) error {
	e := event.New(p.topic, p.kind, payload)
	e.Reliable = p.reliable
	e.TTL = p.ttl
	return wrapErr(p.p.Publish(e))
}

// Close retires the handle; the client connection stays open.
// Idempotent.
func (p *Publisher) Close() error { return wrapErr(p.p.Close()) }
