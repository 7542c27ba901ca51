// Tests of the pull-through Stream: a stream read with Recv is a cursor
// over its subscription ring and owns no goroutine and no channel, so
// what used to be a pump's job — waking on Close and cancel, keeping
// buffered events readable, feeding Chan — is checked here at the
// public surface.
package globalmmcs_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs"
	"github.com/globalmmcs/globalmmcs/internal/testutil"
)

// TestStreamOpenCostsNoGoroutine: a hundred default streams add no
// goroutine while open, and closing them leaves none behind.
func TestStreamOpenCostsNoGoroutine(t *testing.T) {
	testutil.CheckGoroutines(t)
	ctx := context.Background()
	srv := startNode(t)
	alice := newClient(t, srv, "alice")
	session, err := alice.CreateSession(ctx, "idle")
	if err != nil {
		t.Fatal(err)
	}
	room, err := session.Chat(ctx) // the room's first join may start lazy machinery; not under test
	if err != nil {
		t.Fatal(err)
	}
	defer room.Close()

	before := runtime.NumGoroutine()
	var streams []interface{ Close() error }
	for i := 0; i < 25; i++ {
		audio, err := session.Subscribe(ctx, globalmmcs.Audio)
		if err != nil {
			t.Fatal(err)
		}
		video, err := session.Subscribe(ctx, globalmmcs.Video, globalmmcs.WithDropPolicy(globalmmcs.Block))
		if err != nil {
			t.Fatal(err)
		}
		events, err := session.Events(ctx)
		if err != nil {
			t.Fatal(err)
		}
		chat, err := session.Chat(ctx, globalmmcs.WithDropPolicy(globalmmcs.DropNewest))
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, audio, video, events, chat)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d open streams added %d goroutines", len(streams), after-before)
	}
	for _, s := range streams {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamRecvWakesOnClose: a Recv parked on an empty stream returns
// ErrStreamClosed, bare, when another goroutine closes the stream.
func TestStreamRecvWakesOnClose(t *testing.T) {
	_, room := chatFixture(t, nil)
	done := make(chan error, 1)
	go func() {
		_, err := room.Recv(context.Background())
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let Recv reach the ring wait; either order must pass
	if err := room.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != globalmmcs.ErrStreamClosed {
			t.Fatalf("recv = %v, want bare ErrStreamClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("recv did not unblock on Close")
	}
}

// TestStreamCancelRacingDeliveryLosesNothing: every message is sent
// against a Recv whose context is being cancelled at the same moment.
// Whichever wins, the message is delivered exactly once and in order —
// by that Recv, or by the next one.
func TestStreamCancelRacingDeliveryLosesNothing(t *testing.T) {
	session, room := chatFixture(t, nil, globalmmcs.WithDropPolicy(globalmmcs.Block))
	const total = 300
	cancelled := 0
	for i := 1; i <= total; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		sent := make(chan error, 1)
		go func() {
			// Send returns with the message on its way through the broker;
			// sweep the cancel across the time it takes to reach the stream.
			err := session.Send(context.Background(), fmt.Sprintf("m%d", i))
			for spin := time.Now(); time.Since(spin) < time.Duration(i%16)*20*time.Microsecond; {
			}
			cancel()
			sent <- err
		}()
		msg, err := room.Recv(ctx)
		if errors.Is(err, context.Canceled) {
			cancelled++
			retry, stop := context.WithTimeout(context.Background(), 5*time.Second)
			msg, err = room.Recv(retry)
			stop()
		}
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if want := fmt.Sprintf("m%d", i); msg.Body != want {
			t.Fatalf("message %d = %q, want %q", i, msg.Body, want)
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("cancel won %d of %d races", cancelled, total)
	if room.Drops() != 0 {
		t.Fatalf("dropped %d", room.Drops())
	}
}

// TestStreamBufferedAtCloseStillReadable: events in the buffer when the
// stream closes are returned, in order, before ErrStreamClosed.
func TestStreamBufferedAtCloseStillReadable(t *testing.T) {
	session, room := chatFixture(t, nil, globalmmcs.WithBuffer(3))
	sendN(t, session, 4)
	waitDrops(t, room, 1) // m4 displaced m1: all four have reached the stream
	if err := room.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 4; i++ {
		msg, err := room.Recv(context.Background())
		if err != nil {
			t.Fatalf("buffered message %d after close: %v", i, err)
		}
		if want := fmt.Sprintf("m%d", i); msg.Body != want {
			t.Fatalf("got %q, want %q", msg.Body, want)
		}
	}
	if _, err := room.Recv(context.Background()); err != globalmmcs.ErrStreamClosed {
		t.Fatalf("recv on drained closed stream = %v", err)
	}
}

// TestStreamChanMidLife: a stream first read with Recv and then switched
// to Chan delivers every event once and in order across the switch —
// including the part of a burst Recv had already taken out of the ring
// — later Recv calls read the same channel, and Close closes it.
func TestStreamChanMidLife(t *testing.T) {
	session, room := chatFixture(t, nil, globalmmcs.WithDropPolicy(globalmmcs.Block))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	next := 1
	check := func(msg globalmmcs.ChatMessage) {
		t.Helper()
		if want := fmt.Sprintf("m%d", next); msg.Body != want {
			t.Fatalf("got %q, want %q", msg.Body, want)
		}
		next++
	}
	sendN(t, session, 10)
	for i := 0; i < 3; i++ {
		msg, err := room.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		check(msg)
	}
	ch := room.Chan()
	for i := 11; i <= 20; i++ {
		if err := session.Send(ctx, fmt.Sprintf("m%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for next <= 15 {
		select {
		case msg := <-ch:
			check(msg)
		case <-ctx.Done():
			t.Fatalf("stalled before m%d", next)
		}
	}
	for next <= 20 {
		msg, err := room.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		check(msg)
	}
	if room.Chan() != ch {
		t.Fatal("second Chan call returned a different channel")
	}
	if err := room.Close(); err != nil {
		t.Fatal(err)
	}
	if msg, ok := <-ch; ok {
		t.Fatalf("channel open after Close (got %q)", msg.Body)
	}
	if room.Drops() != 0 {
		t.Fatalf("dropped %d", room.Drops())
	}
}

// TestBrokerSubscriptionRecvAfterCancel: Recv on a subscription whose
// client closed first returns what was buffered, then ErrStreamClosed.
func TestBrokerSubscriptionRecvAfterCancel(t *testing.T) {
	_, addr := startResilientBroker(t, "fac-cancel")
	ctx := context.Background()
	c, err := globalmmcs.DialBroker("fac-cancel-sub", []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe(ctx, "/fac/cancel", 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := c.Publish("/fac/cancel", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// The third arrival evicts the first from the 2-deep buffer: once
	// that drop shows, all three have been delivered.
	for deadline := time.Now().Add(5 * time.Second); sub.Drops() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("events never arrived")
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 3; i++ {
		if got := recvPayload(t, sub); len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("buffered event = %v, want [%d]", got, i)
		}
	}
	if _, err := sub.Recv(ctx); !errors.Is(err, globalmmcs.ErrStreamClosed) {
		t.Fatalf("recv after drain = %v, want ErrStreamClosed", err)
	}
}
