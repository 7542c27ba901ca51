package broker

import (
	"fmt"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// linkBrokers connects two brokers over an in-process pipe.
func linkBrokers(t *testing.T, a, b *Broker) {
	t.Helper()
	ca, cb := transport.Pipe(b.ID(), a.ID())
	done := make(chan error, 1)
	go func() {
		b.AcceptConn(cb)
		done <- nil
	}()
	if err := a.ConnectPeerConn(ca); err != nil {
		t.Fatalf("ConnectPeerConn(%s->%s): %v", a.ID(), b.ID(), err)
	}
	if err := <-done; err != nil {
		t.Fatalf("accept side: %v", err)
	}
}

func waitCondition(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("condition %q not reached within %v", what, within)
}

func TestTwoBrokerRouting(t *testing.T) {
	b1 := newTestBroker(t, "b1")
	b2 := newTestBroker(t, "b2")
	linkBrokers(t, b1, b2)

	sub := localClient(t, b2, "sub")
	s, err := sub.Subscribe("/net/chat", 16)
	if err != nil {
		t.Fatal(err)
	}
	// The subscription must propagate from b2 to b1 before publishing.
	waitCondition(t, 5*time.Second, "advertisement reaches b1", func() bool {
		return len(b1.matchSessions("/net/chat")) > 0
	})

	pub := localClient(t, b1, "pub")
	if err := pub.Publish("/net/chat", event.KindChat, []byte("cross-broker")); err != nil {
		t.Fatal(err)
	}
	e := recvOne(t, s, 5*time.Second)
	if string(e.Payload) != "cross-broker" {
		t.Fatalf("got %v", e)
	}
}

func TestThreeBrokerChainRouting(t *testing.T) {
	b1 := newTestBroker(t, "c1")
	b2 := newTestBroker(t, "c2")
	b3 := newTestBroker(t, "c3")
	linkBrokers(t, b1, b2)
	linkBrokers(t, b2, b3)

	sub := localClient(t, b3, "sub")
	s, err := sub.Subscribe("/chain/video", 16)
	if err != nil {
		t.Fatal(err)
	}
	waitCondition(t, 5*time.Second, "advertisement reaches chain head", func() bool {
		return len(b1.matchSessions("/chain/video")) > 0
	})
	pub := localClient(t, b1, "pub")
	if err := pub.Publish("/chain/video", event.KindRTP, []byte("two hops")); err != nil {
		t.Fatal(err)
	}
	e := recvOne(t, s, 5*time.Second)
	if string(e.Payload) != "two hops" {
		t.Fatalf("got %v", e)
	}
}

func TestRoutingOnlyFollowsInterest(t *testing.T) {
	b1 := newTestBroker(t, "i1")
	b2 := newTestBroker(t, "i2")
	linkBrokers(t, b1, b2)

	// A subscriber on b1 only; b2 has no interest.
	sub := localClient(t, b1, "sub")
	if _, err := sub.Subscribe("/local/only", 4); err != nil {
		t.Fatal(err)
	}
	pub := localClient(t, b1, "pub")
	if err := pub.Publish("/local/only", event.KindData, []byte("x")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	// b2 must not have routed the event (no interest advertised from it).
	if got := b2.Metrics().Counter("broker.events_routed").Value(); got != 0 {
		t.Fatalf("b2 routed %d events, want 0 (no downstream interest)", got)
	}
}

func TestUnsubscribePropagates(t *testing.T) {
	b1 := newTestBroker(t, "u1")
	b2 := newTestBroker(t, "u2")
	linkBrokers(t, b1, b2)
	sub := localClient(t, b2, "sub")
	s, err := sub.Subscribe("/u/t", 4)
	if err != nil {
		t.Fatal(err)
	}
	waitCondition(t, 5*time.Second, "adv add", func() bool {
		return len(b1.matchSessions("/u/t")) > 0
	})
	if err := sub.Unsubscribe(s); err != nil {
		t.Fatal(err)
	}
	waitCondition(t, 5*time.Second, "adv remove", func() bool {
		return len(b1.matchSessions("/u/t")) == 0
	})
}

func TestPeerDisconnectRemovesRoutes(t *testing.T) {
	b1 := newTestBroker(t, "d1")
	b2 := New(Config{ID: "d2"})
	linkBrokers(t, b1, b2)
	sub := localClient(t, b2, "sub")
	if _, err := sub.Subscribe("/d/t", 4); err != nil {
		t.Fatal(err)
	}
	waitCondition(t, 5*time.Second, "adv add", func() bool {
		return len(b1.matchSessions("/d/t")) > 0
	})
	// Kill b2 entirely (crash-stop).
	b2.Stop()
	waitCondition(t, 5*time.Second, "peer session removed", func() bool {
		return b1.PeerCount() == 0 && len(b1.matchSessions("/d/t")) == 0
	})
}

func TestLateJoiningBrokerLearnsExistingSubscriptions(t *testing.T) {
	b1 := newTestBroker(t, "l1")
	b2 := newTestBroker(t, "l2")
	sub := localClient(t, b2, "sub")
	s, err := sub.Subscribe("/late/t", 8)
	if err != nil {
		t.Fatal(err)
	}
	// Link AFTER the subscription exists; snapshot must convey it.
	linkBrokers(t, b1, b2)
	waitCondition(t, 5*time.Second, "snapshot applied", func() bool {
		return len(b1.matchSessions("/late/t")) > 0
	})
	pub := localClient(t, b1, "pub")
	if err := pub.Publish("/late/t", event.KindData, []byte("snap")); err != nil {
		t.Fatal(err)
	}
	e := recvOne(t, s, 5*time.Second)
	if string(e.Payload) != "snap" {
		t.Fatalf("got %v", e)
	}
}

func TestStarTopologyFanout(t *testing.T) {
	hub := newTestBroker(t, "hub")
	leaves := make([]*Broker, 4)
	subs := make([]*Subscription, 4)
	for i := range leaves {
		leaves[i] = newTestBroker(t, fmt.Sprintf("leaf%d", i))
		linkBrokers(t, hub, leaves[i])
		c := localClient(t, leaves[i], fmt.Sprintf("sub%d", i))
		s, err := c.Subscribe("/star/media", 16)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
	}
	waitCondition(t, 5*time.Second, "hub sees all leaves", func() bool {
		return len(hub.matchSessions("/star/media")) == 4
	})
	pub := localClient(t, hub, "pub")
	if err := pub.Publish("/star/media", event.KindRTP, []byte("ray")); err != nil {
		t.Fatal(err)
	}
	for i, s := range subs {
		if e := recvOne(t, s, 5*time.Second); string(e.Payload) != "ray" {
			t.Fatalf("leaf %d got %v", i, e)
		}
	}
}

func TestP2PModeFloodsWithDedup(t *testing.T) {
	// Triangle topology: a-b, b-c, a-c. P2P flooding would loop without
	// the dedup cache; each subscriber must get exactly one copy.
	mk := func(id string) *Broker {
		b := New(Config{ID: id, Mode: ModePeerToPeer})
		t.Cleanup(b.Stop)
		return b
	}
	a, bb, c := mk("p-a"), mk("p-b"), mk("p-c")
	linkBrokers(t, a, bb)
	linkBrokers(t, bb, c)
	linkBrokers(t, a, c)

	subB := localClient(t, bb, "subB")
	sB, err := subB.Subscribe("/p2p/x", 16)
	if err != nil {
		t.Fatal(err)
	}
	subC := localClient(t, c, "subC")
	sC, err := subC.Subscribe("/p2p/x", 16)
	if err != nil {
		t.Fatal(err)
	}
	pub := localClient(t, a, "pub")
	if err := pub.Publish("/p2p/x", event.KindData, []byte("flood")); err != nil {
		t.Fatal(err)
	}
	if e := recvOne(t, sB, 5*time.Second); string(e.Payload) != "flood" {
		t.Fatalf("B got %v", e)
	}
	if e := recvOne(t, sC, 5*time.Second); string(e.Payload) != "flood" {
		t.Fatalf("C got %v", e)
	}
	// No duplicates.
	expectNone(t, sB, 300*time.Millisecond)
	expectNone(t, sC, 300*time.Millisecond)
}

func TestP2PTTLBoundsPropagation(t *testing.T) {
	// Chain of 4 brokers in P2P mode; event with TTL 2 reaches broker 3
	// (two hops) but not broker 4.
	mk := func(id string) *Broker {
		b := New(Config{ID: id, Mode: ModePeerToPeer})
		t.Cleanup(b.Stop)
		return b
	}
	b1, b2, b3, b4 := mk("t1"), mk("t2"), mk("t3"), mk("t4")
	linkBrokers(t, b1, b2)
	linkBrokers(t, b2, b3)
	linkBrokers(t, b3, b4)

	sub3 := localClient(t, b3, "sub3")
	s3, err := sub3.Subscribe("/ttl/x", 4)
	if err != nil {
		t.Fatal(err)
	}
	sub4 := localClient(t, b4, "sub4")
	s4, err := sub4.Subscribe("/ttl/x", 4)
	if err != nil {
		t.Fatal(err)
	}
	pub := localClient(t, b1, "pub")
	e := event.New("/ttl/x", event.KindData, []byte("bounded"))
	e.TTL = 2
	if err := pub.PublishEvent(e); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, s3, 5*time.Second); string(got.Payload) != "bounded" {
		t.Fatalf("b3 sub got %v", got)
	}
	expectNone(t, s4, 500*time.Millisecond)
}

func TestModeMismatchRejected(t *testing.T) {
	cs := newTestBroker(t, "m-cs")
	p2p := New(Config{ID: "m-p2p", Mode: ModePeerToPeer})
	t.Cleanup(p2p.Stop)
	ca, cb := transport.Pipe("m-p2p", "m-cs")
	go p2p.handshake(cb)
	if err := cs.ConnectPeerConn(ca); err == nil {
		// The accept side closes the conn on mode mismatch; the dialer
		// should observe an error either connecting or immediately after.
		waitCondition(t, 2*time.Second, "link torn down", func() bool {
			return cs.PeerCount() == 0
		})
	}
}

func TestModeString(t *testing.T) {
	if ModeClientServer.String() != "client-server" {
		t.Error(ModeClientServer.String())
	}
	if ModePeerToPeer.String() != "peer-to-peer" {
		t.Error(ModePeerToPeer.String())
	}
	if Mode(9).String() != "mode(9)" {
		t.Error(Mode(9).String())
	}
}

func TestConnectPeerOverTCP(t *testing.T) {
	b1 := newTestBroker(t, "tcp1")
	b2 := newTestBroker(t, "tcp2")
	l, err := b2.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := transport.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := b1.ConnectPeerConn(conn); err != nil {
		t.Fatal(err)
	}
	sub := localClient(t, b2, "sub")
	s, err := sub.Subscribe("/tcp/peer", 8)
	if err != nil {
		t.Fatal(err)
	}
	waitCondition(t, 5*time.Second, "adv over tcp", func() bool {
		return len(b1.matchSessions("/tcp/peer")) > 0
	})
	pub := localClient(t, b1, "pub")
	if err := pub.Publish("/tcp/peer", event.KindData, []byte("tcp-net")); err != nil {
		t.Fatal(err)
	}
	if e := recvOne(t, s, 5*time.Second); string(e.Payload) != "tcp-net" {
		t.Fatalf("got %v", e)
	}
}
