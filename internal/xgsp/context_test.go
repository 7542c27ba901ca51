package xgsp

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/testutil"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// TestRequestHonorsCancellation issues a request against a broker with
// no session server behind it — the request publishes but no response
// arrives — and asserts cancelling the context unblocks the caller.
func TestRequestHonorsCancellation(t *testing.T) {
	b := broker.New(broker.Config{ID: "lonely"})
	defer b.Stop()
	bc, err := b.LocalClient("u1", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	c, err := NewClient(context.Background(), bc, "u1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Join(ctx, "s1", "t", nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("join = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("request did not unblock on cancellation")
	}

	// An expired deadline fails fast too.
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := c.List(expired, false); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired list = %v", err)
	}
}

// TestRequestAfterClose asserts requests on a closed client fail with
// ErrClosed.
func TestRequestAfterClose(t *testing.T) {
	b := broker.New(broker.Config{ID: "b"})
	defer b.Stop()
	bc, err := b.LocalClient("u1", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(context.Background(), bc, "u1")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.List(context.Background(), false); !errors.Is(err, broker.ErrClientClosed) {
		t.Fatalf("list after close = %v", err)
	}
}

// TestCloseWithBrokerClientOpen: Close stops the inbox listener while
// the broker client, which the caller owns, stays open.
func TestCloseWithBrokerClientOpen(t *testing.T) {
	rig := newRig(t, nil)
	bc, err := rig.b.LocalClient("bc-alice", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	testutil.CheckGoroutines(t)
	c, err := NewClient(context.Background(), bc, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create(context.Background(), CreateSession{Name: "closing"}); err != nil {
		t.Fatal(err)
	}
	c.Close()
}
