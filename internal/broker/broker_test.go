package broker

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

func newTestBroker(t *testing.T, id string) *Broker {
	t.Helper()
	b := New(Config{ID: id})
	t.Cleanup(b.Stop)
	return b
}

func newTestBrokerCfg(t *testing.T, cfg Config) *Broker {
	t.Helper()
	b := New(cfg)
	t.Cleanup(b.Stop)
	return b
}

func localClient(t *testing.T, b *Broker, id string) *Client {
	t.Helper()
	c, err := b.LocalClient(id, transport.LinkProfile{})
	if err != nil {
		t.Fatalf("LocalClient(%s): %v", id, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func recvOne(t *testing.T, sub *Subscription, within time.Duration) *event.Event {
	t.Helper()
	select {
	case e, ok := <-sub.C():
		if !ok {
			t.Fatal("subscription channel closed")
		}
		return e
	case <-time.After(within):
		t.Fatalf("no event within %v on %s", within, sub.Pattern())
		return nil
	}
}

func expectNone(t *testing.T, sub *Subscription, within time.Duration) {
	t.Helper()
	select {
	case e := <-sub.C():
		t.Fatalf("unexpected event %v", e)
	case <-time.After(within):
	}
}

func TestSingleBrokerPubSub(t *testing.T) {
	b := newTestBroker(t, "b1")
	pub := localClient(t, b, "pub")
	sub := localClient(t, b, "sub")

	s, err := sub.Subscribe("/room/1/chat", 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("/room/1/chat", event.KindChat, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	e := recvOne(t, s, 2*time.Second)
	if string(e.Payload) != "hi" || e.Source != "pub" {
		t.Fatalf("got %v", e)
	}
}

func TestPublisherDoesNotReceiveOwnEvents(t *testing.T) {
	b := newTestBroker(t, "b1")
	c := localClient(t, b, "c1")
	s, err := c.Subscribe("/t/x", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("/t/x", event.KindData, []byte("self")); err != nil {
		t.Fatal(err)
	}
	// NaradaBrokering-style pub/sub delivers to all subscribers including
	// the publisher's own subscriptions — verify we DO receive it (loopback
	// via broker, not suppressed).
	e := recvOne(t, s, 2*time.Second)
	if string(e.Payload) != "self" {
		t.Fatalf("got %v", e)
	}
}

func TestWildcardSubscription(t *testing.T) {
	b := newTestBroker(t, "b1")
	pub := localClient(t, b, "pub")
	sub := localClient(t, b, "sub")
	s, err := sub.Subscribe("/xgsp/session/*/video", 16)
	if err != nil {
		t.Fatal(err)
	}
	all, err := sub.Subscribe("/xgsp/#", 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("/xgsp/session/42/video", event.KindRTP, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if e := recvOne(t, s, 2*time.Second); e.Topic != "/xgsp/session/42/video" {
		t.Fatalf("wildcard sub got %v", e)
	}
	if e := recvOne(t, all, 2*time.Second); e.Topic != "/xgsp/session/42/video" {
		t.Fatalf("rest sub got %v", e)
	}
	if err := pub.Publish("/xgsp/session/42/audio", event.KindRTP, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if e := recvOne(t, all, 2*time.Second); e.Topic != "/xgsp/session/42/audio" {
		t.Fatalf("rest sub got %v", e)
	}
	expectNone(t, s, 100*time.Millisecond)
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	b := newTestBroker(t, "b1")
	pub := localClient(t, b, "pub")
	sub := localClient(t, b, "sub")
	s, err := sub.Subscribe("/t/u", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Unsubscribe(s); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-s.C(); ok {
		t.Fatal("channel should be closed after unsubscribe")
	}
	if err := pub.Publish("/t/u", event.KindData, nil); err != nil {
		t.Fatal(err)
	}
	// No panic, no delivery; unroutable counter bumps.
	time.Sleep(50 * time.Millisecond)
	if got := b.Metrics().Counter("broker.events_unroutable").Value(); got == 0 {
		t.Fatal("expected unroutable counter to increase")
	}
}

func TestReservedTopicsRejected(t *testing.T) {
	b := newTestBroker(t, "b1")
	c := localClient(t, b, "c1")
	if _, err := c.Subscribe("/_nb/hello", 4); err == nil {
		t.Fatal("subscribe to reserved namespace succeeded")
	}
	if err := c.Publish("/_nb/sub", event.KindData, nil); err == nil {
		t.Fatal("publish to reserved namespace succeeded")
	}
}

func TestInvalidPatternRejected(t *testing.T) {
	b := newTestBroker(t, "b1")
	c := localClient(t, b, "c1")
	if _, err := c.Subscribe("nope", 4); err == nil {
		t.Fatal("invalid pattern accepted")
	}
}

func TestFanout400(t *testing.T) {
	b := newTestBroker(t, "b1")
	pub := localClient(t, b, "pub")
	const n = 400
	subs := make([]*Subscription, n)
	for i := range n {
		c := localClient(t, b, fmt.Sprintf("r%d", i))
		s, err := c.Subscribe("/media/video", 64)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
	}
	if err := pub.Publish("/media/video", event.KindRTP, []byte("frame")); err != nil {
		t.Fatal(err)
	}
	for i, s := range subs {
		e := recvOne(t, s, 5*time.Second)
		if string(e.Payload) != "frame" {
			t.Fatalf("receiver %d got %v", i, e)
		}
	}
}

func TestReliableDeliveryOverLossyLink(t *testing.T) {
	b := New(Config{ID: "b1", RetransmitInterval: 30 * time.Millisecond})
	defer b.Stop()
	pub, err := b.LocalClient("pub", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	// 40% loss on broker→subscriber direction.
	sub, err := b.LocalClient("sub", transport.LinkProfile{Loss: 0.4, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	s, err := sub.Subscribe("/sig/control", 64)
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	for i := range n {
		if err := pub.PublishReliable("/sig/control", event.KindControl, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[byte]bool)
	deadline := time.After(10 * time.Second)
	for len(got) < n {
		select {
		case e := <-s.C():
			got[e.Payload[0]] = true
		case <-deadline:
			t.Fatalf("only %d/%d reliable events delivered over lossy link", len(got), n)
		}
	}
}

func TestBestEffortMayDropOnSlowConsumer(t *testing.T) {
	b := New(Config{ID: "b1", QueueDepth: 8})
	defer b.Stop()
	pub, err := b.LocalClient("pub", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub, err := b.LocalClient("sub", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	s, err := sub.Subscribe("/media/x", 2)
	if err != nil {
		t.Fatal(err)
	}
	// Flood without consuming; client-side buffer is 2, so drops must occur.
	for i := range 1000 {
		if err := pub.Publish("/media/x", event.KindRTP, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(200 * time.Millisecond)
	if s.Drops() == 0 && b.Metrics().Counter("broker.queue_drops").Value() == 0 {
		t.Fatal("expected drops somewhere under 1000-event flood with depth 2")
	}
}

func TestClientCloseClosesSubscriptions(t *testing.T) {
	b := newTestBroker(t, "b1")
	c := localClient(t, b, "c1")
	s, err := c.Subscribe("/t/y", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-s.C():
		if ok {
			t.Fatal("expected closed channel")
		}
	case <-time.After(time.Second):
		t.Fatal("channel not closed after client close")
	}
	select {
	case <-c.Done():
	case <-time.After(time.Second):
		t.Fatal("Done not closed")
	}
	if err := c.Publish("/t/y", event.KindData, nil); err == nil {
		t.Fatal("publish after close succeeded")
	}
}

func TestDuplicateClientIDSupersedes(t *testing.T) {
	b := newTestBroker(t, "b1")
	c1 := localClient(t, b, "same")
	_, err := c1.Subscribe("/t/z", 4)
	if err != nil {
		t.Fatal(err)
	}
	c2 := localClient(t, b, "same")
	// The first client's connection should be torn down.
	select {
	case <-c1.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("old session not closed on id reuse")
	}
	s2, err := c2.Subscribe("/t/z", 4)
	if err != nil {
		t.Fatal(err)
	}
	pub := localClient(t, b, "pub")
	if err := pub.Publish("/t/z", event.KindData, []byte("x")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, s2, 2*time.Second)
}

func TestBrokerOverTCP(t *testing.T) {
	b := newTestBroker(t, "b1")
	l, err := b.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Dial(l.Addr(), "tcp-sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := Dial(l.Addr(), "tcp-pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	s, err := sub.Subscribe("/tcp/topic", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("/tcp/topic", event.KindData, []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	e := recvOne(t, s, 2*time.Second)
	if string(e.Payload) != "over tcp" {
		t.Fatalf("got %v", e)
	}
}

func TestBrokerStopTerminatesClients(t *testing.T) {
	b := New(Config{ID: "b1"})
	c, err := b.LocalClient("c1", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	b.Stop()
	select {
	case <-c.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("client not disconnected by broker stop")
	}
	if _, err := b.LocalClient("c2", transport.LinkProfile{}); err == nil {
		t.Fatal("LocalClient after Stop succeeded")
	}
	// Stop is idempotent.
	b.Stop()
}

func TestPublishValidation(t *testing.T) {
	b := newTestBroker(t, "b1")
	c := localClient(t, b, "c1")
	if err := c.Publish("no-slash", event.KindData, nil); err == nil {
		t.Fatal("invalid topic accepted")
	}
	e := event.New("/t", 0, nil) // invalid kind
	if err := c.PublishEvent(e); err == nil {
		t.Fatal("invalid kind accepted")
	}
}

func TestBrokerPublishDirect(t *testing.T) {
	b := newTestBroker(t, "b1")
	sub := localClient(t, b, "sub")
	s, err := sub.Subscribe("/direct", 4)
	if err != nil {
		t.Fatal(err)
	}
	e := event.New("/direct", event.KindData, []byte("from broker"))
	e.Source, e.ID = "broker-injected", 1
	if err := b.Publish(e); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, s, 2*time.Second); string(got.Payload) != "from broker" {
		t.Fatalf("got %v", got)
	}
	if err := b.Publish(event.New("/_nb/x", event.KindData, nil)); err == nil {
		t.Fatal("reserved publish accepted")
	}
}

func TestSubscribeDuplicatePatternBothDeliver(t *testing.T) {
	b := newTestBroker(t, "b1")
	pub := localClient(t, b, "pub")
	sub := localClient(t, b, "sub")
	s1, err := sub.Subscribe("/dup", 4)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sub.Subscribe("/dup", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("/dup", event.KindData, []byte("d")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, s1, 2*time.Second)
	recvOne(t, s2, 2*time.Second)
	// Unsubscribing one keeps the other alive.
	if err := sub.Unsubscribe(s1); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("/dup", event.KindData, []byte("d2")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, s2, 2*time.Second)
}

func TestAttachEmptyIDRejected(t *testing.T) {
	a, _ := transport.Pipe("x", "y")
	if _, err := Attach(a, ""); err == nil {
		t.Fatal("empty id accepted")
	}
}

func TestDialBadURL(t *testing.T) {
	if _, err := Dial("bogus://x", "id"); err == nil {
		t.Fatal("bad url accepted")
	}
	var errClosed = errors.New("sentinel")
	_ = errClosed
}

func TestRouteCacheInvalidatedOnSubscriptionChange(t *testing.T) {
	b := newTestBroker(t, "cache")
	// Publish with no subscribers through the broker's synchronous entry
	// point so the (empty) route is definitely cached before the
	// subscription below arrives.
	prime := event.New("/cache/t", event.KindData, nil)
	prime.Source, prime.ID = "pub", 1
	if err := b.Publish(prime); err != nil {
		t.Fatal(err)
	}
	// A subscription arriving afterwards must invalidate the cache.
	sub := localClient(t, b, "sub")
	s, err := sub.Subscribe("/cache/t", 4)
	if err != nil {
		t.Fatal(err)
	}
	fresh := event.New("/cache/t", event.KindData, []byte("fresh"))
	fresh.Source, fresh.ID = "pub", 2
	if err := b.Publish(fresh); err != nil {
		t.Fatal(err)
	}
	if e := recvOne(t, s, 2*time.Second); string(e.Payload) != "fresh" {
		t.Fatalf("got %v", e)
	}
	// And unsubscribe must invalidate again.
	if err := sub.Unsubscribe(s); err != nil {
		t.Fatal(err)
	}
	gone := event.New("/cache/t", event.KindData, []byte("gone"))
	gone.Source, gone.ID = "pub", 3
	if err := b.Publish(gone); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // nothing should arrive; channel closed anyway
}
