package broker

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

func burstEvent(id uint64, topic string) *event.Event {
	e := event.New(topic, event.KindRTP, []byte("burst-payload"))
	e.Source = "burst-pub"
	e.ID = id
	return e
}

// TestRouteBatchSingleLockPerSession is the batching contract in one
// assertion: routing a burst of K events to N subscriber sessions takes
// one producer-side queue lock acquisition per session — not K — as
// counted by the queue's instrumented mutex.
func TestRouteBatchSingleLockPerSession(t *testing.T) {
	b := New(Config{ID: "lock-burst"})
	defer b.Stop()

	const subscribers = 64
	const burst = 16
	sessions := make([]*session, 0, subscribers)
	for i := 0; i < subscribers; i++ {
		// Sessions are hand-attached (no goroutines) so only the routing
		// sweep touches their queues.
		s := newSession(b, newCaptureConn(), fmt.Sprintf("lock-sub-%d", i), false)
		if err := b.subs.Add("/lock/t", s); err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}

	events := make([]*event.Event, burst)
	for i := range events {
		events[i] = burstEvent(uint64(i+1), "/lock/t")
	}
	sweep := b.newRouteSweep()
	sweep.routeBatch(events, nil)

	for i, s := range sessions {
		if locks := s.queue.pushLockCount(); locks != 1 {
			t.Fatalf("session %d: %d push lock acquisitions for one burst, want 1", i, locks)
		}
		if depth := s.queue.depth(); depth != burst {
			t.Fatalf("session %d: queue depth %d, want %d", i, depth, burst)
		}
	}

	// A second burst costs exactly one more acquisition per session.
	sweep.routeBatch(events, nil)
	for i, s := range sessions {
		if locks := s.queue.pushLockCount(); locks != 2 {
			t.Fatalf("session %d: %d push locks after two bursts, want 2", i, locks)
		}
	}
}

// TestReliableFanoutEncodeOnce: fanning a reliable event out to K framed
// sessions performs exactly one marshal — every target gets an
// rseq-patched copy of the shared encoding, not a clone+marshal.
func TestReliableFanoutEncodeOnce(t *testing.T) {
	b := New(Config{ID: "rel-once"})
	defer b.Stop()

	const fanout = 64
	sessions := make([]*session, 0, fanout)
	for i := 0; i < fanout; i++ {
		s := newSession(b, newCaptureConn(), fmt.Sprintf("rel-sub-%d", i), false)
		if err := b.subs.Add("/rel/t", s); err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}

	e := burstEvent(1, "/rel/t")
	e.Reliable = true
	before := event.MarshalCalls()
	b.route(e, nil)
	if d := event.MarshalCalls() - before; d != 1 {
		t.Fatalf("reliable fan-out to %d framed sessions marshalled %d times, want 1", fanout, d)
	}

	for i, s := range sessions {
		it, st := popOne(s.queue)
		if st != popOK {
			t.Fatalf("session %d: no queued reliable item", i)
		}
		if it.frame == nil {
			t.Fatalf("session %d: reliable item is not frame-backed", i)
		}
		if got := it.frame.RSeq(); got != 1 {
			t.Fatalf("session %d: frame rseq %d, want 1", i, got)
		}
		dec, err := it.frame.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if dec.Topic != "/rel/t" || !dec.Reliable || dec.RSeq != 1 {
			t.Fatalf("session %d: decoded %+v", i, dec)
		}
	}

	// The batch path shares the same single encoding.
	e2 := burstEvent(2, "/rel/t")
	e2.Reliable = true
	before = event.MarshalCalls()
	b.newRouteSweep().routeBatch([]*event.Event{e2}, nil)
	if d := event.MarshalCalls() - before; d != 1 {
		t.Fatalf("routeBatch reliable fan-out marshalled %d times, want 1", d)
	}
}

// TestReliableFanoutEncodeOncePeers: reliable fan-out to framed *peer*
// links stays O(1) marshals — the TTL decrement is a header patch on the
// shared rseq-slot encoding, and each peer gets an 8-byte rseq patch.
func TestReliableFanoutEncodeOncePeers(t *testing.T) {
	b := New(Config{ID: "rel-peers"})
	defer b.Stop()

	const peers = 8
	sessions := make([]*session, 0, peers)
	for i := 0; i < peers; i++ {
		s := newSession(b, newCaptureConn(), fmt.Sprintf("rel-peer-%d", i), true)
		if err := b.subs.Add("/rel/p", s); err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}

	e := burstEvent(3, "/rel/p")
	e.Reliable = true
	e.TTL = 9
	before := event.MarshalCalls()
	b.route(e, nil)
	if d := event.MarshalCalls() - before; d != 1 {
		t.Fatalf("reliable fan-out to %d framed peers marshalled %d times, want 1", peers, d)
	}
	for i, s := range sessions {
		it, st := popOne(s.queue)
		if st != popOK || it.frame == nil {
			t.Fatalf("peer %d: missing frame-backed reliable item", i)
		}
		dec, err := it.frame.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if dec.TTL != 8 {
			t.Fatalf("peer %d: TTL %d, want 8 (decremented)", i, dec.TTL)
		}
		if dec.RSeq != 1 {
			t.Fatalf("peer %d: rseq %d, want 1", i, dec.RSeq)
		}
	}
}

// lossyListener shapes every accepted conn with the given profile,
// emulating an unreliable link on the broker→client direction while the
// conn stays framed (the configuration the rseq-patched reliable plane
// must survive).
type lossyListener struct {
	transport.Listener
	profile transport.LinkProfile
}

func (l *lossyListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return transport.Shape(c, l.profile), nil
}

// TestReliableRSeqPatchedLossLink: rseq-patched reliable frames
// retransmit and ack correctly across a framed link that drops frames.
// Every event arrives exactly once, via retransmission.
func TestReliableRSeqPatchedLossLink(t *testing.T) {
	b := New(Config{
		ID:                 "loss-broker",
		retransmitInterval: 20 * time.Millisecond,
		maxRetransmits:     100,
	})
	defer b.Stop()
	inner, err := transport.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b.Serve(&lossyListener{Listener: inner, profile: transport.LinkProfile{Loss: 0.3, Seed: 42}})

	c, err := Dial(inner.Addr(), "loss-client")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe("/loss/t", 256)
	if err != nil {
		t.Fatal(err)
	}

	const n = 50
	for i := 1; i <= n; i++ {
		e := event.New("/loss/t", event.KindControl, []byte("reliable"))
		e.Reliable = true
		e.Source = "loss-pub"
		e.ID = uint64(i)
		if err := b.Publish(e); err != nil {
			t.Fatal(err)
		}
	}

	seen := make(map[uint64]int)
	deadline := time.Now().Add(20 * time.Second)
	for len(seen) < n {
		e, err := recvWithin(sub, time.Until(deadline))
		if err != nil {
			t.Fatalf("only %d/%d reliable events arrived over the lossy link", len(seen), n)
		}
		seen[e.ID]++
	}
	for id, count := range seen {
		if count != 1 {
			t.Fatalf("event %d delivered %d times, want exactly once", id, count)
		}
	}
	if b.Metrics().Counter("broker.retransmits").Value() == 0 {
		t.Fatal("no retransmissions recorded on a 30%-loss link")
	}
}

// TestBurstControlOrdering: a control request arriving mid-burst is
// applied in order relative to the data events around it (the sweep is
// flushed before the control event is handled).
func TestBurstControlOrdering(t *testing.T) {
	b := New(Config{ID: "order-burst"})
	defer b.Stop()

	sub, err := b.LocalClient("order-sub", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	s, err := sub.Subscribe("/order/t", 64)
	if err != nil {
		t.Fatal(err)
	}

	// One conn delivers publish+unsubscribe-shaped interleavings: publish
	// A, subscribe to a second topic, publish B to it. If control were
	// deferred past the whole burst, B would race its own subscription.
	pub, err := b.LocalClient("order-pub", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for i := 1; i <= 8; i++ {
		if err := pub.Publish("/order/t", event.KindData, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	deadline := time.Now().Add(5 * time.Second)
	for got < 8 {
		if _, err := recvWithin(s, time.Until(deadline)); err != nil {
			t.Fatalf("only %d/8 events delivered", got)
		}
		got++
	}
}

// eventAtATimeConn hides every optional interface of the conn it wraps
// (BurstConn, EventBatchConn, ...), so readers fall back to one Recv per
// event: the path UDP and any plain Conn take.
type eventAtATimeConn struct{ transport.Conn }

// eventAtATimeClient attaches a client to b whose broker-side conn cannot
// burst, so the session's ingest loop takes each event as a burst of one.
func eventAtATimeClient(t *testing.T, b *Broker, id string) *Client {
	t.Helper()
	clientEnd, serverEnd := transport.Pipe("mem:"+b.cfg.ID, "mem:"+id)
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		b.handshake(eventAtATimeConn{serverEnd})
	}()
	c, err := Attach(clientEnd, id)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBurstIngestDisabled: with no burst-capable conn under the session,
// ingest degenerates to event-at-a-time (bursts of one through the same
// processBurst/routeBatch path) and still delivers every event.
func TestBurstIngestDisabled(t *testing.T) {
	b := New(Config{ID: "noburst"})
	defer b.Stop()
	sub := eventAtATimeClient(t, b, "nb-sub")
	defer sub.Close()
	s, err := sub.Subscribe("/nb/t", 64)
	if err != nil {
		t.Fatal(err)
	}
	pub := eventAtATimeClient(t, b, "nb-pub")
	defer pub.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	got := 0
	go func() {
		defer wg.Done()
		deadline := time.Now().Add(5 * time.Second)
		for got < 16 {
			if _, err := recvWithin(s, time.Until(deadline)); err != nil {
				return
			}
			got++
		}
	}()
	for i := 0; i < 16; i++ {
		if err := pub.Publish("/nb/t", event.KindData, []byte("y")); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got != 16 {
		t.Fatalf("delivered %d/16 with event-at-a-time ingest", got)
	}
}
