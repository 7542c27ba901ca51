package xgsp

import (
	"context"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// TestXGSPAcrossBrokerNetwork runs the session server on one broker and
// the client on a peer broker: requests, responses and notifications all
// cross the inter-broker link.
func TestXGSPAcrossBrokerNetwork(t *testing.T) {
	b1 := broker.New(broker.Config{ID: "xn-1"})
	t.Cleanup(b1.Stop)
	b2 := broker.New(broker.Config{ID: "xn-2"})
	t.Cleanup(b2.Stop)
	ca, cb := transport.Pipe("xn-2", "xn-1")
	go b2.AcceptConn(cb)
	if err := b1.ConnectPeerConn(ca); err != nil {
		t.Fatal(err)
	}

	// Session server on b1.
	sc, err := b1.LocalClient("xgsp-server", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sc, ServerConfig{})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)

	// Client on b2; its inbox subscription must propagate to b1 before
	// the first request, which Subscribe's fence plus the advertisement
	// push guarantees eventually — Request retries are not implemented,
	// so wait for the route.
	bc, err := b2.LocalClient("bc-remote", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	client, err := NewClient(context.Background(), bc, "remote-user")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	// Wait until b1 can route a response back to the remote inbox.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if info, err := client.Create(context.Background(), CreateSession{Name: "cross-broker"}); err == nil {
			// Full lifecycle across the network.
			if _, err := client.Join(context.Background(), info.ID, "remote-term", nil); err != nil {
				t.Fatal(err)
			}
			watch, err := client.WatchControl(context.Background(), info.ID)
			if err != nil {
				t.Fatal(err)
			}
			if err := client.Leave(context.Background(), info.ID); err != nil {
				t.Fatal(err)
			}
			n := recvNotify(t, watch)
			if n.Kind != NotifyLeft {
				t.Fatalf("notify = %+v", n)
			}
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatal("request never completed across the broker network")
}

// TestXGSPOverLossyLink drives the whole request/response/notify cycle
// over a 25%-lossy client link; the reliable profile must mask the loss.
func TestXGSPOverLossyLink(t *testing.T) {
	b := broker.New(broker.Config{ID: "xl"})
	t.Cleanup(b.Stop)
	sc, err := b.LocalClient("xgsp-server", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sc, ServerConfig{})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)

	bc, err := b.LocalClient("bc-lossy", transport.LinkProfile{Loss: 0.25, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	client, err := NewClient(context.Background(), bc, "lossy-user")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	info, err := client.Create(context.Background(), CreateSession{Name: "lossy-session"})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 5 {
		if _, err := client.Join(context.Background(), info.ID, "t", nil); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		if err := client.Leave(context.Background(), info.ID); err != nil {
			t.Fatalf("leave %d: %v", i, err)
		}
	}
}
