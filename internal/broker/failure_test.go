package broker

import (
	"fmt"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// linkBrokersShaped connects two brokers with a shaped (lossy/delayed)
// link in both directions.
func linkBrokersShaped(t *testing.T, a, b *Broker, profile transport.LinkProfile) {
	t.Helper()
	ca, cb := transport.Pipe(b.ID(), a.ID())
	sa := transport.Shape(ca, profile)
	sb := transport.Shape(cb, profile)
	done := make(chan struct{})
	go func() {
		b.AcceptConn(sb)
		close(done)
	}()
	if err := a.ConnectPeerConn(sa); err != nil {
		t.Fatalf("ConnectPeerConn: %v", err)
	}
	<-done
}

func TestReliableSignallingAcrossLossyPeerLink(t *testing.T) {
	// 30% loss on the inter-broker link: advertisements and reliable
	// events must still arrive via hop-by-hop retransmission.
	mk := func(id string) *Broker {
		b := New(Config{ID: id, retransmitInterval: 30 * time.Millisecond})
		t.Cleanup(b.Stop)
		return b
	}
	b1, b2 := mk("lossy-1"), mk("lossy-2")
	linkBrokersShaped(t, b1, b2, transport.LinkProfile{Loss: 0.3, Seed: 1234})

	sub := localClient(t, b2, "sub")
	s, err := sub.Subscribe("/lossy/control", 64)
	if err != nil {
		t.Fatal(err)
	}
	// The advertisement itself crosses the lossy link reliably.
	waitCondition(t, 10*time.Second, "advertisement crosses lossy link", func() bool {
		return len(b1.matchSessions("/lossy/control")) > 0
	})
	pub := localClient(t, b1, "pub")
	const n = 20
	for i := range n {
		if err := pub.PublishReliable("/lossy/control", event.KindControl, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[byte]bool)
	deadline := time.Now().Add(15 * time.Second)
	for len(got) < n {
		e, err := recvWithin(s, time.Until(deadline))
		if err != nil {
			t.Fatalf("only %d/%d reliable events crossed the lossy link", len(got), n)
		}
		got[e.Payload[0]] = true
	}
}

func TestBestEffortAcrossLossyPeerLinkDrops(t *testing.T) {
	mk := func(id string) *Broker {
		b := New(Config{ID: id})
		t.Cleanup(b.Stop)
		return b
	}
	b1, b2 := mk("belossy-1"), mk("belossy-2")
	linkBrokersShaped(t, b1, b2, transport.LinkProfile{Loss: 0.5, Seed: 77})
	sub := localClient(t, b2, "sub")
	s, err := sub.Subscribe("/belossy/media", 2048)
	if err != nil {
		t.Fatal(err)
	}
	waitCondition(t, 10*time.Second, "adv", func() bool {
		return len(b1.matchSessions("/belossy/media")) > 0
	})
	pub := localClient(t, b1, "pub")
	const n = 400
	for i := range n {
		if err := pub.Publish("/belossy/media", event.KindRTP, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Collect for a bounded period; roughly half should survive, and
	// critically the system must not retransmit best-effort media.
	received := 0
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, err := recvWithin(s, time.Until(deadline)); err != nil {
			break
		}
		received++
	}
	if received < n/4 || received > n*3/4 {
		t.Fatalf("received %d of %d over 50%% lossy link, want roughly half", received, n)
	}
}

func TestSlowReliableConsumerIsDisconnected(t *testing.T) {
	// A client that never acks reliable events must be evicted once the
	// reliable window fills, instead of the broker buffering forever.
	b := New(Config{ID: "evict", reliableWindow: 16, retransmitInterval: 20 * time.Millisecond, maxRetransmits: 3})
	defer b.Stop()

	// A raw conn that performs the handshake and subscribes, then goes
	// silent (never acks).
	client, server := transport.Pipe("evict-broker", "silent-client")
	go b.AcceptConn(server)
	hello := helloEvent("silent")
	if err := client.Send(hello); err != nil {
		t.Fatal(err)
	}
	if err := client.Send(subEvent("/evict/t")); err != nil {
		t.Fatal(err)
	}
	// Drain inbound so the pipe does not backpressure, but never ack.
	go func() {
		for {
			if _, err := client.Recv(); err != nil {
				return
			}
		}
	}()
	waitCondition(t, 5*time.Second, "subscribed", func() bool {
		return len(b.matchSessions("/evict/t")) > 0
	})

	pub, err := b.LocalClient("pub", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for i := range 100 {
		if err := pub.PublishReliable("/evict/t", event.KindControl, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitCondition(t, 10*time.Second, "silent client evicted", func() bool {
		return len(b.matchSessions("/evict/t")) == 0
	})
}

func TestPartitionHealsAfterReconnect(t *testing.T) {
	mk := func(id string) *Broker {
		b := New(Config{ID: id, advRefreshInterval: 100 * time.Millisecond})
		t.Cleanup(b.Stop)
		return b
	}
	b1, b2 := mk("part-1"), mk("part-2")

	ca, cb := transport.Pipe(b2.ID(), b1.ID())
	go b2.AcceptConn(cb)
	if err := b1.ConnectPeerConn(ca); err != nil {
		t.Fatal(err)
	}
	sub := localClient(t, b2, "sub")
	s, err := sub.Subscribe("/part/t", 64)
	if err != nil {
		t.Fatal(err)
	}
	waitCondition(t, 5*time.Second, "initial adv", func() bool {
		return len(b1.matchSessions("/part/t")) > 0
	})

	// Partition: kill the link.
	ca.Close()
	waitCondition(t, 5*time.Second, "link removed", func() bool {
		return b1.PeerCount() == 0 && b2.PeerCount() == 0
	})

	// Heal: new link; the advertisement snapshot restores routing.
	ca2, cb2 := transport.Pipe(b2.ID(), b1.ID())
	go b2.AcceptConn(cb2)
	if err := b1.ConnectPeerConn(ca2); err != nil {
		t.Fatal(err)
	}
	waitCondition(t, 5*time.Second, "adv restored", func() bool {
		return len(b1.matchSessions("/part/t")) > 0
	})
	pub := localClient(t, b1, "pub")
	if err := pub.Publish("/part/t", event.KindData, []byte("healed")); err != nil {
		t.Fatal(err)
	}
	if e := recvOne(t, s, 5*time.Second); string(e.Payload) != "healed" {
		t.Fatalf("got %v", e)
	}
}

func TestStaleAdvertisementsPruned(t *testing.T) {
	// When a peer vanishes without clean teardown (e.g. its host dies),
	// the soft-state refresh must eventually prune its patterns.
	b1 := New(Config{ID: "prune-1", advRefreshInterval: 50 * time.Millisecond})
	t.Cleanup(b1.Stop)

	// Hand-craft a peer that advertises then goes silent (no refresh).
	client, server := transport.Pipe("prune-broker", "fake-peer")
	go b1.AcceptConn(server)
	if err := client.Send(peerHelloEvent("fake-peer", ModeClientServer, "")); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			e, err := client.Recv()
			if err != nil {
				return
			}
			// Ack reliable traffic so the session stays healthy, but never
			// re-advertise.
			if e.RSeq != 0 {
				_ = client.Send(ackEvent(e.RSeq))
			}
		}
	}()
	adv := subAdvEvent(advAdd, "/stale/t", "fake-peer", 1, 0)
	if err := client.Send(adv); err != nil {
		t.Fatal(err)
	}
	waitCondition(t, 5*time.Second, "adv applied", func() bool {
		return len(b1.matchSessions("/stale/t")) > 0
	})
	// Without refreshes, the entry must be pruned within ~3 intervals.
	waitCondition(t, 5*time.Second, "adv pruned", func() bool {
		return len(b1.matchSessions("/stale/t")) == 0
	})
}

func TestManyClientsChurn(t *testing.T) {
	// Clients connecting, subscribing and vanishing concurrently must not
	// corrupt broker state.
	b := New(Config{ID: "churn"})
	defer b.Stop()
	const rounds = 5
	const perRound = 20
	for r := range rounds {
		done := make(chan error, perRound)
		for i := range perRound {
			go func() {
				c, err := b.LocalClient(fmt.Sprintf("churn-%d-%d", r, i), transport.LinkProfile{})
				if err != nil {
					done <- err
					return
				}
				if _, err := c.Subscribe(fmt.Sprintf("/churn/%d", i%5), 8); err != nil {
					done <- err
					return
				}
				if err := c.Publish(fmt.Sprintf("/churn/%d", i%5), event.KindData, nil); err != nil {
					done <- err
					return
				}
				done <- c.Close()
			}()
		}
		for range perRound {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
	waitCondition(t, 5*time.Second, "all sessions cleaned", func() bool {
		return b.SessionCount() == 0
	})
}
