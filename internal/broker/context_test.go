package broker

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// TestSubscribeContextCancelled asserts SubscribeContext returns the
// context error both when the context is cancelled up front and while
// the control fence is blocked on an unresponsive broker.
func TestSubscribeContextCancelled(t *testing.T) {
	// A client attached to a pipe nobody serves: control requests go
	// out, but no fence echo ever returns.
	clientEnd, serverEnd := transport.Pipe("mem:client", "mem:void")
	defer serverEnd.Close()
	c, err := Attach(clientEnd, "c1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, err := c.SubscribeContext(pre, "/t", 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled subscribe = %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.SubscribeContext(ctx, "/t", 8)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the fence block
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("blocked subscribe = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("subscribe did not unblock on cancellation")
	}
}

// TestPublishAfterClose asserts a closed client reports ErrClientClosed
// rather than a raw transport error.
func TestPublishAfterClose(t *testing.T) {
	b := New(Config{ID: "b1"})
	defer b.Stop()
	c, err := b.LocalClient("c1", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("/t", 0, nil); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("publish after close = %v", err)
	}
}

// TestControlWaitersCleanedUp: a control-reply wait unregisters its
// waiter however it ends. A SubscribeReplay cancelled mid-handshake
// (which also stops the broker-side stream) and a fence that times out
// each leave the client's waiter map empty.
func TestControlWaitersCleanedUp(t *testing.T) {
	waiters := func(c *Client) int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.waiters)
	}
	next := func(r *fakeBrokerRig) *event.Event {
		t.Helper()
		select {
		case e := <-r.recvCh:
			return e
		case <-time.After(2 * time.Second):
			t.Fatal("no control request reached the broker end")
			return nil
		}
	}

	rig := newFakeBrokerRig(t, "waiter-replay")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := rig.c.SubscribeReplay(ctx, "/rec/t", 0, 8)
		done <- err
	}()
	if e := next(rig); e.Topic != topicReplay || e.Headers[hdrOp] != repStart {
		t.Fatalf("first request = %s %v, want a replay start", e.Topic, e.Headers)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled replay subscribe = %v, want context.Canceled", err)
	}
	if e := next(rig); e.Topic != topicReplay || e.Headers[hdrOp] != repStop {
		t.Fatalf("after cancel the client sent %s %v, want a replay stop", e.Topic, e.Headers)
	}
	if n := waiters(rig.c); n != 0 {
		t.Fatalf("cancelled replay subscribe left %d waiters", n)
	}
	rig.c.mu.Lock()
	replays, subs := len(rig.c.replays), len(rig.c.subSet)
	rig.c.mu.Unlock()
	if replays != 0 || subs != 0 {
		t.Fatalf("cancelled replay subscribe left %d replays, %d subscriptions", replays, subs)
	}

	// Nothing echoes the ping, so the fence runs out its whole window.
	fenced := newFakeBrokerRig(t, "waiter-fence")
	if err := fenced.c.fence(context.Background()); !errors.Is(err, ErrFenceTimeout) {
		t.Fatalf("unanswered fence = %v, want ErrFenceTimeout", err)
	}
	if n := waiters(fenced.c); n != 0 {
		t.Fatalf("timed-out fence left %d waiters", n)
	}
}
