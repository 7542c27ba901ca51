package broker

import (
	"runtime"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// TestParkingSiblingIsolation: a subscription whose consumer has
// stalled under reliable backpressure must not stall the client's
// readLoop — sibling subscriptions on the same connection keep
// receiving. The stalled subscription's ring grows to twice its depth
// to hold the overflow, which is delivered, in order, once its consumer
// resumes.
func TestParkingSiblingIsolation(t *testing.T) {
	const ringDepth = 4
	const stalled = 2 * ringDepth // fills the ring, then its growth
	const siblingEvents = 100

	b := New(Config{ID: "park"})
	defer b.Stop()

	sc, err := b.LocalClient("park-sub", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	subA, err := sc.Subscribe("/iso/a", ringDepth) // consumer stalled below
	if err != nil {
		t.Fatal(err)
	}
	subB, err := sc.Subscribe("/iso/b", 256) // active sibling
	if err != nil {
		t.Fatal(err)
	}

	pc, err := b.LocalClient("park-pub", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	// Fill A's grown ring with reliable traffic nobody is reading.
	for i := 0; i < stalled; i++ {
		if err := pc.PublishReliable("/iso/a", event.KindControl, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		return subA.DeliveryStats().Events >= stalled
	}, "stalled subscription never buffered 2 × depth of reliable traffic")
	if st := subA.DeliveryStats(); st.MaxOccupancy != stalled {
		t.Fatalf("expected overflow to grow the ring to %d, stats %+v", stalled, st)
	}

	// The sibling must keep receiving while A is saturated. A ring that
	// blocked the readLoop at its depth would starve B here.
	for i := 0; i < siblingEvents; i++ {
		if err := pc.Publish("/iso/b", event.KindRTP, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	gotB := 0
	buf := make([]*event.Event, 0, 64)
	deadline := time.Now().Add(5 * time.Second)
	for gotB < siblingEvents && time.Now().Before(deadline) {
		var ok bool
		buf, ok = subB.tryRecvBatch(buf[:0], 64)
		gotB += len(buf)
		clear(buf)
		if !ok {
			t.Fatal("sibling subscription closed unexpectedly")
		}
		time.Sleep(time.Millisecond)
	}
	if gotB != siblingEvents {
		t.Fatalf("sibling received %d/%d events while its neighbour was backpressured", gotB, siblingEvents)
	}

	// Resume A's consumer: every stalled event arrives, in publish order.
	var gotA []*event.Event
	for len(gotA) < stalled {
		batch, ok := subA.RecvBatch(nil, stalled)
		if !ok {
			t.Fatal("stalled subscription closed before draining")
		}
		gotA = append(gotA, batch...)
	}
	for i, e := range gotA {
		if len(e.Payload) != 1 || e.Payload[0] != byte(i) {
			t.Fatalf("event %d out of order: payload %v", i, e.Payload)
		}
	}
}

// TestReliableOverflowStartsNoGoroutine: a subscription whose reliable
// traffic overflows to 2 × depth buffers it in its ring alone — the
// overflow starts no goroutine.
func TestReliableOverflowStartsNoGoroutine(t *testing.T) {
	const ringDepth = 4
	b := New(Config{ID: "grow"})
	defer b.Stop()
	sc, err := b.LocalClient("grow-sub", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	sub, err := sc.Subscribe("/grow/a", ringDepth)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := b.LocalClient("grow-pub", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	// One reliable round trip first, so whatever the path starts lazily
	// is running before the baseline.
	if err := pc.PublishReliable("/grow/a", event.KindControl, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := recvWithin(sub, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	for i := 0; i < 2*ringDepth; i++ {
		if err := pc.PublishReliable("/grow/a", event.KindControl, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		return sub.DeliveryStats().Events >= 1+2*ringDepth
	}, "subscription never buffered 2 × depth of reliable traffic")
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("reliable overflow to 2 × depth started %d goroutines", after-before)
	}
	if st := sub.DeliveryStats(); st.MaxOccupancy != 2*ringDepth {
		t.Fatalf("buffered %d events at depth %d, want %d", st.MaxOccupancy, ringDepth, 2*ringDepth)
	}
}
