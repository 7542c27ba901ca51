package globalmmcs

import (
	"context"
	"errors"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/event"
)

// ConnState is a broker client's link state, observable via
// BrokerClient.ConnState and WithConnStateFunc.
type ConnState int

// Link states. A plain client only moves Connected → Closed; a
// reconnect-enabled one cycles Connected ↔ Reconnecting until closed.
const (
	StateConnected ConnState = iota + 1
	StateReconnecting
	StateClosed
)

// String implements fmt.Stringer.
func (s ConnState) String() string { return broker.ConnState(s).String() }

// BrokerClient is a remote pub/sub client of a standalone Broker — the
// facade over the raw messaging substrate for processes that talk to a
// broker network directly instead of through a Server session. With
// WithReconnect it survives broker restarts and network cuts: the link
// is redialed with backoff across the given URLs, subscriptions are
// resumed (reliable delivery picks up where the old conn died when the
// broker parks sessions, see WithSessionLinger), and replay
// subscriptions catch up from the durable topic log.
type BrokerClient struct {
	c *broker.Client
}

// BrokerClientOption tunes DialBroker.
type BrokerClientOption func(*brokerClientConfig)

type brokerClientConfig struct {
	reconnect bool
	pubBuffer int
	onState   func(ConnState)
}

// WithReconnect enables supervised auto-reconnect: on conn loss the
// client redials the URLs round-robin with exponential backoff and
// jitter, presents its resume token so a linger-enabled broker restores
// the session (subscriptions, reliable window, exactly-once delivery),
// and transparently re-subscribes when the broker refuses the resume.
// Without it a lost conn closes the client.
func WithReconnect() BrokerClientOption {
	return func(cfg *brokerClientConfig) { cfg.reconnect = true }
}

// WithPublishBuffer bounds how many best-effort publishes are buffered
// while a reconnect-enabled client is between conns, flushed in order
// once the link is back (default 256; negative disables buffering so
// publishes during an outage fail fast with ErrConnLost). Only
// meaningful together with WithReconnect.
func WithPublishBuffer(n int) BrokerClientOption {
	return func(cfg *brokerClientConfig) {
		if n <= 0 {
			n = -1
		}
		cfg.pubBuffer = n
	}
}

// WithConnStateFunc observes link-state transitions (Connected,
// Reconnecting, Closed). The callback runs on client-internal
// goroutines and must not block. Only meaningful together with
// WithReconnect.
func WithConnStateFunc(fn func(ConnState)) BrokerClientOption {
	return func(cfg *brokerClientConfig) { cfg.onState = fn }
}

// DialBroker connects to a broker network as the given client identity.
// Without WithReconnect only the first URL is dialed and the client
// dies with its conn; with it the URL list is the redial rotation.
func DialBroker(id string, urls []string, opts ...BrokerClientOption) (*BrokerClient, error) {
	if len(urls) == 0 {
		return nil, tag(ErrInvalidRequest, errors.New("globalmmcs: no broker URLs"))
	}
	var cfg brokerClientConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if !cfg.reconnect {
		c, err := broker.Dial(urls[0], id)
		if err != nil {
			return nil, wrapErr(err)
		}
		return &BrokerClient{c: c}, nil
	}
	var onState func(broker.ConnState)
	if cfg.onState != nil {
		fn := cfg.onState
		onState = func(st broker.ConnState) { fn(ConnState(st)) }
	}
	c, err := broker.DialResilient(broker.ResilientConfig{
		URLs:          urls,
		ID:            id,
		PublishBuffer: cfg.pubBuffer,
		OnState:       onState,
	})
	if err != nil {
		return nil, wrapErr(err)
	}
	return &BrokerClient{c: c}, nil
}

// ID returns the client identity.
func (bc *BrokerClient) ID() string { return bc.c.ID() }

// ConnState reports the current link state.
func (bc *BrokerClient) ConnState() ConnState { return ConnState(bc.c.ConnState()) }

// Publish sends a best-effort data event.
func (bc *BrokerClient) Publish(topic string, payload []byte) error {
	return wrapErr(bc.c.Publish(topic, event.KindData, payload))
}

// PublishReliable sends a data event on the reliable lane: the broker
// acknowledges it hop-by-hop and redelivers across a resume.
func (bc *BrokerClient) PublishReliable(topic string, payload []byte) error {
	return wrapErr(bc.c.PublishReliable(topic, event.KindData, payload))
}

// Subscribe registers a topic-pattern subscription with a bounded
// buffer. On a reconnect-enabled client it survives conn loss: events
// resume flowing once the link is back, with no gap in the reliable
// lane when the broker honoured the resume.
func (bc *BrokerClient) Subscribe(ctx context.Context, pattern string, depth int) (*BrokerSubscription, error) {
	sub, err := bc.c.SubscribeContext(ctx, pattern, depth)
	if err != nil {
		return nil, wrapErr(err)
	}
	return &BrokerSubscription{sub: sub}, nil
}

// SubscribeReplay subscribes to a broker-recorded pattern starting from
// a durable log sequence (0 = the oldest retained record): history
// replays first, then the subscription hands off to live delivery. On a
// reconnect-enabled client the replay re-anchors after each reconnect
// at the last record seen, so catch-up is exactly-once even across
// broker restarts.
func (bc *BrokerClient) SubscribeReplay(ctx context.Context, pattern string, from uint64, depth int) (*BrokerSubscription, error) {
	sub, err := bc.c.SubscribeReplay(ctx, pattern, from, depth)
	if err != nil {
		return nil, wrapErr(err)
	}
	return &BrokerSubscription{sub: sub}, nil
}

// Close tears the client down. On a reconnect-enabled client this also
// stops the redial supervisor. Idempotent.
func (bc *BrokerClient) Close() error { return wrapErr(bc.c.Close()) }

// BrokerSubscription is one pattern subscription's receive handle. One
// goroutine at a time may call Recv.
type BrokerSubscription struct {
	sub *broker.Subscription
	one [1]*event.Event // Recv's pop buffer
}

// Pattern returns the subscribed topic pattern.
func (s *BrokerSubscription) Pattern() string { return s.sub.Pattern() }

// Drops reports best-effort events shed because the subscriber lagged.
func (s *BrokerSubscription) Drops() uint64 { return s.sub.Drops() }

// Recv blocks for the next event. It returns ErrStreamClosed once the
// subscription is cancelled or the client is closed and the events
// buffered by then have been received, and the context error if ctx
// expires first.
func (s *BrokerSubscription) Recv(ctx context.Context) (Event, error) {
	out, err := s.sub.RecvBatchContext(ctx, s.one[:0], 1)
	if err != nil {
		if err == broker.ErrSubscriptionClosed { // returned bare
			return Event{}, tag(ErrStreamClosed, err)
		}
		return Event{}, wrapErr(err)
	}
	raw, _ := rawFromInternal(out[0])
	s.one[0] = nil
	return raw, nil
}

// Cancel unsubscribes; Recv reports closed once the buffer is drained.
func (s *BrokerSubscription) Cancel() error { return wrapErr(s.sub.Cancel()) }
