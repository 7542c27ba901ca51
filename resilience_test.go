// Resilience-plane facade tests: everything here imports the public
// globalmmcs package only and runs over real TCP listeners, proving the
// resume/reconnect/drain machinery is reachable without touching
// internal packages.
package globalmmcs_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	globalmmcs "github.com/globalmmcs/globalmmcs"
)

func startResilientBroker(t *testing.T, id string) (*globalmmcs.Broker, string) {
	t.Helper()
	b := startBrokerNode(t,
		globalmmcs.WithBrokerID(id),
		globalmmcs.WithSessionLinger(time.Minute),
		globalmmcs.WithBrokerListen("tcp://127.0.0.1:0"),
	)
	return b, b.Addrs()[0]
}

func recvPayload(t *testing.T, sub *globalmmcs.BrokerSubscription) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	e, err := sub.Recv(ctx)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	return e.Payload
}

// TestDialBrokerRoundtrip: the plain (non-reconnecting) facade client
// can subscribe and publish over TCP, and closing it surfaces the
// ErrNotConnected taxonomy on later calls.
func TestDialBrokerRoundtrip(t *testing.T) {
	_, addr := startResilientBroker(t, "fac-rt")
	ctx := context.Background()

	sub1, err := globalmmcs.DialBroker("fac-sub", []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer sub1.Close()
	pub, err := globalmmcs.DialBroker("fac-pub", []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	sub, err := sub1.Subscribe(ctx, "/fac/*", 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.PublishReliable("/fac/a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if got := recvPayload(t, sub); string(got) != "hello" {
		t.Fatalf("payload = %q, want hello", got)
	}

	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("/fac/a", nil); !errors.Is(err, globalmmcs.ErrNotConnected) {
		t.Fatalf("publish after close = %v, want ErrNotConnected", err)
	}
}

// TestDialBrokerDrainFailover: draining a broker hands a
// reconnect-enabled client over to the next URL in its rotation, with
// the subscription surviving transparently.
func TestDialBrokerDrainFailover(t *testing.T) {
	b1, addr1 := startResilientBroker(t, "fac-d1")
	b2, addr2 := startResilientBroker(t, "fac-d2")
	ctx := context.Background()

	var mu sync.Mutex
	var states []globalmmcs.ConnState
	c, err := globalmmcs.DialBroker("fac-mover", []string{addr1, addr2},
		globalmmcs.WithReconnect(),
		globalmmcs.WithConnStateFunc(func(s globalmmcs.ConnState) {
			mu.Lock()
			states = append(states, s)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe(ctx, "/fac/move", 16)
	if err != nil {
		t.Fatal(err)
	}
	if b1.SessionCount() != 1 {
		t.Fatalf("client not on b1 (sessions=%d)", b1.SessionCount())
	}

	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := b1.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for b2.SessionCount() != 1 || c.ConnState() != globalmmcs.StateConnected {
		if time.Now().After(deadline) {
			t.Fatalf("client never landed on b2 (b2 sessions=%d, state=%v)",
				b2.SessionCount(), c.ConnState())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The subscription moved with the client: a publisher on b2 reaches it.
	pub, err := globalmmcs.DialBroker("fac-pub2", []string{addr2})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.PublishReliable("/fac/move", []byte("post-drain")); err != nil {
		t.Fatal(err)
	}
	if got := recvPayload(t, sub); string(got) != "post-drain" {
		t.Fatalf("payload = %q, want post-drain", got)
	}

	mu.Lock()
	saw := fmt.Sprint(states)
	mu.Unlock()
	for _, want := range []globalmmcs.ConnState{globalmmcs.StateConnected, globalmmcs.StateReconnecting} {
		found := false
		mu.Lock()
		for _, s := range states {
			if s == want {
				found = true
			}
		}
		mu.Unlock()
		if !found {
			t.Fatalf("state callback never saw %v (saw %s)", want, saw)
		}
	}
}

// TestDialBrokerConnLost: with buffering disabled, a reconnect-enabled
// client whose brokers are all gone fails fast with the transient
// ErrConnLost — distinct from the terminal ErrNotConnected after Close.
func TestDialBrokerConnLost(t *testing.T) {
	b, addr := startResilientBroker(t, "fac-lost")
	c, err := globalmmcs.DialBroker("fac-lost-c", []string{addr},
		globalmmcs.WithReconnect(), globalmmcs.WithPublishBuffer(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	b.Stop()
	deadline := time.Now().Add(10 * time.Second)
	for c.ConnState() != globalmmcs.StateReconnecting {
		if time.Now().After(deadline) {
			t.Fatalf("state = %v, want StateReconnecting", c.ConnState())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := c.Publish("/fac/x", nil); !errors.Is(err, globalmmcs.ErrConnLost) {
		t.Fatalf("publish during outage = %v, want ErrConnLost", err)
	}
	if _, err := c.Subscribe(context.Background(), "/fac/x", 8); !errors.Is(err, globalmmcs.ErrConnLost) {
		t.Fatalf("subscribe during outage = %v, want ErrConnLost", err)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c.ConnState(); got != globalmmcs.StateClosed {
		t.Fatalf("state after close = %v, want StateClosed", got)
	}
	if err := c.Publish("/fac/x", nil); !errors.Is(err, globalmmcs.ErrNotConnected) {
		t.Fatalf("publish after close = %v, want ErrNotConnected", err)
	}
}
