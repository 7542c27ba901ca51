package broker

import (
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// TestRecvWindowBound: a remote that tags rseqs above a gap it never
// fills cannot grow the session's receive window past the reliable
// window. Everything further ahead than that is dropped unrouted and
// counted invalid; filling the gap then carries the floor over the
// whole buffered run.
func TestRecvWindowBound(t *testing.T) {
	b := newTestBroker(t, "gap-broker")
	rc := rawAttach(t, b, helloEvent("gapper"))
	pongs := make(chan struct{}, 1)
	go func() {
		for {
			e, err := rc.conn.Recv()
			if err != nil {
				return
			}
			if e.Topic == topicPing {
				pongs <- struct{}{}
			}
		}
	}()
	// fence returns once the broker has processed everything sent before
	// it: a ping is echoed in read order.
	fence := func() {
		t.Helper()
		if err := rc.conn.Send(event.New(topicPing, event.KindControl, nil)); err != nil {
			t.Fatal(err)
		}
		select {
		case <-pongs:
		case <-time.After(5 * time.Second):
			t.Fatal("ping echo not received")
		}
	}
	send := func(from, to uint64) {
		t.Helper()
		batch := make([]*event.Event, 0, maxBurst)
		for r := from; r <= to; r++ {
			e := event.New("/gap/t", event.KindData, nil)
			e.Source, e.ID, e.RSeq = "gapper", r, r
			if batch = append(batch, e); len(batch) == cap(batch) || r == to {
				if err := transport.SendEvents(rc.conn, batch); err != nil {
					t.Fatal(err)
				}
				batch = batch[:0]
			}
		}
	}
	var s *session
	waitCondition(t, 5*time.Second, "session attached", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		s = b.ids["gapper"]
		return s != nil
	})
	routed := b.ctr.eventsRtd.Value

	const beyond = 100
	send(2, defaultReliableWindow+beyond) // rseq 1 never sent
	fence()
	s.recv.mu.Lock()
	cum, ahead := s.recv.cum, len(s.recv.ahead)
	s.recv.mu.Unlock()
	if cum != 0 || ahead > defaultReliableWindow {
		t.Fatalf("receive window: cum %d, %d ahead; want 0 and at most %d", cum, ahead, defaultReliableWindow)
	}
	if got, want := routed(), uint64(defaultReliableWindow-1); got != want {
		t.Fatalf("routed %d events, want %d (rseq 2..%d)", got, want, defaultReliableWindow)
	}
	if got := b.ctr.invalid.Value(); got != beyond {
		t.Fatalf("invalid events = %d, want the %d beyond the window", got, beyond)
	}

	send(1, 1)
	fence()
	if got := s.recv.floor(); got != defaultReliableWindow {
		t.Fatalf("floor after the gap filled = %d, want %d", got, defaultReliableWindow)
	}
	if got, want := routed(), uint64(defaultReliableWindow); got != want {
		t.Fatalf("routed %d events after the gap filled, want %d", got, want)
	}
}
