package broker

import (
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// dialTCPPair starts a broker on loopback TCP and returns an attached
// publisher client and a subscribed consumer.
func dialTCPPair(t *testing.T) (*Broker, *Client, *Subscription) {
	t.Helper()
	b := New(Config{ID: "pub-broker"})
	t.Cleanup(b.Stop)
	l, err := b.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := Dial(l.Addr(), "publisher")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pub.Close() })
	consumer, err := Dial(l.Addr(), "consumer")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { consumer.Close() })
	sub, err := consumer.Subscribe("/pub/#", 256)
	if err != nil {
		t.Fatal(err)
	}
	return b, pub, sub
}

// TestPublisherBatchedDelivery proves events queued behind a long
// linger still hit the wire once the batch fills or Flush runs.
func TestPublisherBatchedDelivery(t *testing.T) {
	_, c, sub := dialTCPPair(t)
	p := c.Publisher(PublisherConfig{Batching: true, flushInterval: time.Hour})
	if p.bw == nil {
		t.Fatal("tcp publisher not batched")
	}
	if err := p.Publish(event.New("/pub/a", event.KindData, []byte("one"))); err != nil {
		t.Fatal(err)
	}
	// The linger is an hour: nothing should arrive until Flush.
	if e, err := recvWithin(sub, 50*time.Millisecond); err == nil {
		t.Fatalf("event %v delivered before flush", e)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, sub, 5*time.Second); string(got.Payload) != "one" {
		t.Fatalf("payload = %q", got.Payload)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Publish(event.New("/pub/a", event.KindData, nil)); err != ErrPublisherClosed {
		t.Fatalf("publish after close = %v", err)
	}
}

// TestPublisherReliableFlushes is the flush-on-reliable regression: a
// reliable publish must force the whole pending batch onto the wire
// immediately, even under an arbitrarily long linger.
func TestPublisherReliableFlushes(t *testing.T) {
	_, c, sub := dialTCPPair(t)
	p := c.Publisher(PublisherConfig{Batching: true, flushInterval: time.Hour})
	if err := p.Publish(event.New("/pub/media", event.KindRTP, []byte("best-effort"))); err != nil {
		t.Fatal(err)
	}
	rel := event.New("/pub/signal", event.KindControl, []byte("reliable"))
	rel.Reliable = true
	if err := p.Publish(rel); err != nil {
		t.Fatal(err)
	}
	// Both must arrive promptly (the broker's delivery lanes may reorder
	// reliable ahead of best-effort; only promptness is asserted).
	got := map[string]bool{}
	for i := 0; i < 2; i++ {
		got[string(recvOne(t, sub, 5*time.Second).Payload)] = true
	}
	if !got["best-effort"] || !got["reliable"] {
		t.Fatalf("delivered = %v", got)
	}
}

// TestPublisherLingerTimer proves a partial batch is flushed by the
// background timer without any further publishes.
func TestPublisherLingerTimer(t *testing.T) {
	_, c, sub := dialTCPPair(t)
	p := c.Publisher(PublisherConfig{Batching: true, flushInterval: 2 * time.Millisecond})
	if err := p.Publish(event.New("/pub/a", event.KindData, []byte("tail"))); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, sub, 5*time.Second); string(got.Payload) != "tail" {
		t.Fatalf("payload = %q", got.Payload)
	}
}

// TestPublisherMemFallback: batching over an in-process pipe degrades
// to per-event sends (there is nothing to batch) but still delivers.
func TestPublisherMemFallback(t *testing.T) {
	b := New(Config{ID: "mem-broker"})
	defer b.Stop()
	c, err := b.LocalClient("local", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe("/pub/#", 16)
	if err != nil {
		t.Fatal(err)
	}
	p := c.Publisher(PublisherConfig{Batching: true})
	if p.bw != nil {
		t.Fatal("mem publisher claims batching")
	}
	if err := p.Publish(event.New("/pub/a", event.KindData, []byte("direct"))); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, sub, 5*time.Second); string(got.Payload) != "direct" {
		t.Fatalf("payload = %q", got.Payload)
	}
	// The closed contract holds on the unbatched fallback too.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Publish(event.New("/pub/a", event.KindData, nil)); err != ErrPublisherClosed {
		t.Fatalf("publish after close = %v", err)
	}
}
