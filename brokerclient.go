package globalmmcs

import (
	"context"
	"errors"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/event"
)

// BrokerClient is a raw pub/sub client of a broker network: topics and
// payloads, no sessions. It dials one broker and dies with its conn. A
// remote process that collaborates uses Dial, whose Client survives
// reconnects and speaks sessions and typed streams.
type BrokerClient struct {
	c *broker.Client
}

// DialBroker connects to urls[0] as the given client identity.
func DialBroker(id string, urls []string) (*BrokerClient, error) {
	if id == "" || len(urls) == 0 {
		return nil, tag(ErrInvalidRequest, errors.New("globalmmcs: DialBroker needs a client id and a broker URL"))
	}
	c, err := broker.Dial(urls[0], id)
	if err != nil {
		return nil, wrapErr(err)
	}
	return &BrokerClient{c: c}, nil
}

// Publish sends a best-effort data event.
func (bc *BrokerClient) Publish(topic string, payload []byte) error {
	return wrapErr(bc.c.Publish(topic, event.KindData, payload))
}

// Subscribe registers a topic-pattern subscription with a bounded
// buffer.
func (bc *BrokerClient) Subscribe(ctx context.Context, pattern string, depth int) (*BrokerSubscription, error) {
	sub, err := bc.c.SubscribeContext(ctx, pattern, depth)
	if err != nil {
		return nil, wrapErr(err)
	}
	return &BrokerSubscription{sub: sub}, nil
}

// Close tears the client down. Idempotent.
func (bc *BrokerClient) Close() error { return wrapErr(bc.c.Close()) }

// BrokerSubscription is one pattern subscription's receive handle. One
// goroutine at a time may call Recv.
type BrokerSubscription struct {
	sub *broker.Subscription
	one [1]*event.Event // Recv's pop buffer
}

// Drops reports best-effort events shed because the subscriber lagged.
func (s *BrokerSubscription) Drops() uint64 { return s.sub.Drops() }

// Recv blocks for the next event. Once the client is closed it first
// returns the events buffered by then, then ErrStreamClosed; it returns
// the context error if ctx expires first.
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
