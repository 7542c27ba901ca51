package globalmmcs

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestJoinHonorsCancellation wedges the session server so a Join blocks
// with no response, then cancels the caller's context and asserts the
// call returns promptly with the cancellation instead of hanging until
// the request timeout.
func TestJoinHonorsCancellation(t *testing.T) {
	srv, err := Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	alice, err := srv.Client(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	session, err := alice.CreateSession(context.Background(), "doomed")
	if err != nil {
		t.Fatal(err)
	}

	// Stop the XGSP session server: requests now publish fine but no
	// response ever comes back, so Join blocks.
	srv.xgsp.Stop()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- session.Join(ctx, "terminal") }()
	time.Sleep(50 * time.Millisecond) // let the request get in flight
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("join returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("join did not unblock on cancellation")
	}
}

// TestStartHonorsCancelledContext asserts Start fails fast under an
// already-cancelled context and leaves nothing running.
func TestStartHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Start(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("start = %v, want context.Canceled", err)
	}
}
