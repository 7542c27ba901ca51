// Broker node tests: the standalone Broker and a Server's broker are
// one node assembly, configured by the same options.
package globalmmcs_test

import (
	"context"
	"errors"
	"testing"
	"time"

	globalmmcs "github.com/globalmmcs/globalmmcs"
	"github.com/globalmmcs/globalmmcs/internal/testutil"
)

var bareServices = []globalmmcs.Option{
	globalmmcs.WithoutSIP(), globalmmcs.WithoutH323(), globalmmcs.WithoutRTSP(), globalmmcs.WithoutIM(),
}

func startBrokerNode(t *testing.T, opts ...globalmmcs.Option) *globalmmcs.Broker {
	t.Helper()
	b, err := globalmmcs.NewBroker(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Stop)
	return b
}

// waitFor polls cond until it holds or 10 s pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNewBrokerStopsMesh: Stop tears down the supervised link of a
// broker whose peer never answers, so no redial loop outlives it.
func TestNewBrokerStopsMesh(t *testing.T) {
	testutil.CheckGoroutines(t)
	b, err := globalmmcs.NewBroker(globalmmcs.WithPeers("tcp://127.0.0.1:1"))
	if err != nil {
		t.Fatal(err)
	}
	if links := b.PeerLinks(); len(links) != 1 {
		t.Fatalf("links = %+v, want one", links)
	}
	b.Stop()
}

// TestNewBrokerListenError: a listen failure after a successful listen
// returns an error and stops the half-built node.
func TestNewBrokerListenError(t *testing.T) {
	testutil.CheckGoroutines(t)
	b, err := globalmmcs.NewBroker(globalmmcs.WithBrokerListen("tcp://127.0.0.1:0", "bogus://nowhere"))
	if err == nil {
		b.Stop()
		t.Fatal("NewBroker with an invalid listen URL must fail")
	}
	if b != nil {
		t.Fatalf("broker = %v on error, want nil", b)
	}
}

// TestNodeDrainAfterStop: both node kinds report a drain after Stop as
// ErrServerStopped.
func TestNodeDrainAfterStop(t *testing.T) {
	ctx := context.Background()
	b, err := globalmmcs.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := globalmmcs.Start(ctx, bareServices...)
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]struct {
		b    *globalmmcs.Broker
		stop func()
	}{"broker": {b, b.Stop}, "server": {srv.Broker(), srv.Stop}} {
		n.stop()
		if err := n.b.Drain(ctx); !errors.Is(err, globalmmcs.ErrServerStopped) {
			t.Errorf("%s: drain after stop = %v, want ErrServerStopped", name, err)
		}
	}
}

// TestNodeMesh federates standalone brokers and a Server through the
// root options: a matching mesh links and routes, a foreign mesh ID or
// routing mode is refused, and a Server's link goes with its Stop.
func TestNodeMesh(t *testing.T) {
	testutil.CheckGoroutines(t)
	ctx := context.Background()
	listen := globalmmcs.WithBrokerListen("tcp://127.0.0.1:0")

	a := startBrokerNode(t, globalmmcs.WithBrokerID("mesh-a"), globalmmcs.WithMeshID("m1"), listen)
	aAddr := a.Addrs()[0]
	b := startBrokerNode(t, globalmmcs.WithBrokerID("mesh-b"), globalmmcs.WithMeshID("m1"),
		globalmmcs.WithPeers(aAddr), listen)
	waitFor(t, "b's link to a up", func() bool {
		links := b.PeerLinks()
		return len(links) == 1 && links[0].State == "up"
	})

	sub, err := globalmmcs.DialBroker("mesh-sub", []string{aAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := globalmmcs.DialBroker("mesh-pub", b.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	s, err := sub.Subscribe(ctx, "/mesh/*", 64)
	if err != nil {
		t.Fatal(err)
	}
	// The subscription's advertisement reaches b asynchronously: publish
	// until one event crosses the link.
	for delivered := false; !delivered; {
		if err := pub.Publish("/mesh/x", []byte("across")); err != nil {
			t.Fatal(err)
		}
		rctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
		e, err := s.Recv(rctx)
		cancel()
		switch {
		case err == nil:
			if string(e.Payload) != "across" {
				t.Fatalf("payload = %q", e.Payload)
			}
			delivered = true
		case !errors.Is(err, context.DeadlineExceeded):
			t.Fatal(err)
		}
	}

	c := startBrokerNode(t, globalmmcs.WithBrokerID("mesh-c"), globalmmcs.WithMeshID("other"),
		globalmmcs.WithPeers(aAddr))
	d := startBrokerNode(t, globalmmcs.WithBrokerID("mesh-d"), globalmmcs.WithPeerToPeer(),
		globalmmcs.WithPeers(aAddr))
	for _, n := range []*globalmmcs.Broker{c, d} {
		waitFor(t, "a refused link to redial", func() bool {
			links := n.PeerLinks()
			return len(links) == 1 && links[0].Redials >= 1
		})
	}
	if got := a.PeerCount(); got != 1 {
		t.Fatalf("a.PeerCount = %d with a foreign mesh and mode dialing, want 1", got)
	}

	srv, err := globalmmcs.Start(ctx, append([]globalmmcs.Option{
		globalmmcs.WithBrokerID("mesh-srv"), globalmmcs.WithPeers(aAddr),
	}, bareServices...)...)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the server's link", func() bool { return a.PeerCount() == 2 })
	srv.Stop()
	waitFor(t, "the server's link to go", func() bool { return a.PeerCount() == 1 })
}
