package broker

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
)

// TestPeerCreditStallShedsAtSender: a peer link whose receiver never
// grants exhausts its credit window — further best-effort events are
// shed at the sender (counted in the per-link stall counter) instead of
// staged, while a granted sibling link and reliable traffic keep
// flowing.
func TestPeerCreditStallShedsAtSender(t *testing.T) {
	const window = 8
	b := New(Config{ID: "cr", PeerCreditWindow: window})
	defer b.Stop()

	stalled := newSession(b, newCaptureConn(), "cr-stalled", true)
	stalled.creditStallCtr = b.Metrics().Counter("broker.peer.cr-stalled.credit_stalls")
	healthy := newSession(b, newCaptureConn(), "cr-healthy", true)
	for _, s := range []*session{stalled, healthy} {
		if s.creditWindow != window {
			t.Fatalf("peer credit window = %d, want %d", s.creditWindow, window)
		}
		if err := b.subs.Add("/cr/t", s); err != nil {
			t.Fatal(err)
		}
	}
	b.mu.Lock()
	b.peers[stalled] = struct{}{}
	b.peers[healthy] = struct{}{}
	b.refreshPeerSnapLocked()
	b.mu.Unlock()

	const total = 20
	events := make([]*event.Event, total)
	for i := range events {
		events[i] = burstEvent(uint64(i+1), "/cr/t")
	}
	// The healthy link is granted as the receiver consumes; simulate the
	// remote staying caught up.
	healthy.noteCreditGrant(total)
	sweep := b.newRouteSweep()
	sweep.routeBatch(events, nil)

	if depth := stalled.queue.depth(); depth != window {
		t.Fatalf("stalled link staged %d events, want the %d-event window", depth, window)
	}
	if stalls := stalled.creditStallCtr.Value(); stalls != total-window {
		t.Fatalf("credit_stalls = %d, want %d shed at the sender", stalls, total-window)
	}
	if depth := healthy.queue.depth(); depth != total {
		t.Fatalf("granted sibling staged %d events, want all %d", depth, total)
	}

	// Reliable traffic bypasses the exhausted window.
	rel := burstEvent(total+1, "/cr/t")
	rel.Reliable = true
	sweep.routeBatch([]*event.Event{rel}, nil)
	if depth := stalled.queue.depth(); depth != window+1 {
		t.Fatalf("reliable event not staged past the stall: depth %d, want %d", depth, window+1)
	}

	// A cumulative grant reopens the window.
	stalled.noteCreditGrant(4)
	more := burstEvent(total+2, "/cr/t")
	sweep.routeBatch([]*event.Event{more}, nil)
	if depth := stalled.queue.depth(); depth != window+2 {
		t.Fatalf("grant did not reopen the window: depth %d, want %d", depth, window+2)
	}
}

// TestPeerCreditReceiverGrants: the receiving side of a peer link
// counts consumed best-effort data and emits one cumulative grant per
// quantum through the queue's coalescing credit slot, ahead of data.
func TestPeerCreditReceiverGrants(t *testing.T) {
	b := New(Config{ID: "gr", PeerCreditWindow: 8})
	defer b.Stop()
	s := newSession(b, newCaptureConn(), "gr-peer", true)
	if s.creditQuantum != 2 {
		t.Fatalf("creditQuantum = %d, want window/4 = 2", s.creditQuantum)
	}

	s.noteConsumed(1)
	if _, st := popOne(s.queue); st != popEmpty {
		t.Fatalf("grant emitted below the quantum: %v", st)
	}
	s.noteConsumed(1)
	it, st := popOne(s.queue)
	if st != popOK || it.e == nil || it.e.Topic != topicCredit {
		t.Fatalf("expected a credit grant, got %+v (%v)", it, st)
	}
	if !it.reliable {
		t.Fatal("grants must ride the flush-now lane")
	}
	if cum, err := headerUint(it.e, hdrSeq); err != nil || cum != 2 {
		t.Fatalf("grant cum = %d (%v), want 2", cum, err)
	}

	// Grants coalesce: two quanta consumed while the writer is busy
	// collapse into one slot carrying the newest cumulative count.
	s.noteConsumed(2)
	s.noteConsumed(2)
	it, st = popOne(s.queue)
	if st != popOK || it.e == nil || it.e.Topic != topicCredit {
		t.Fatalf("expected a coalesced grant, got %+v (%v)", it, st)
	}
	if cum, _ := headerUint(it.e, hdrSeq); cum != 6 {
		t.Fatalf("coalesced grant cum = %d, want 6", cum)
	}
	if _, st = popOne(s.queue); st != popEmpty {
		t.Fatalf("more than one grant queued: %v", st)
	}
}

// TestPeerCreditEndToEnd: across a real TCP mesh link, grants flow back
// as the receiver consumes, so a best-effort stream much longer than
// the window crosses without the sender wedging — and the sender's
// consumed floor advances, proving the grant loop ran.
func TestPeerCreditEndToEnd(t *testing.T) {
	const window = 64
	b1 := newTestBrokerCfg(t, Config{ID: "e1", PeerCreditWindow: window})
	b2 := newTestBrokerCfg(t, Config{ID: "e2", PeerCreditWindow: window})
	l, err := b1.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mesh := NewMesh(b2, fastMeshConfig(l.Addr()))
	t.Cleanup(mesh.Stop)
	waitCondition(t, 5*time.Second, "mesh link up", func() bool {
		return b1.PeerCount() == 1 && b2.PeerCount() == 1
	})

	sub := localClient(t, b1, "e2e-sub")
	s, err := sub.Subscribe("/credit/e2e", 4096)
	if err != nil {
		t.Fatal(err)
	}
	waitCondition(t, 5*time.Second, "advertisement reaches e2", func() bool {
		return len(b2.matchSessions("/credit/e2e")) > 0
	})

	const total = 10 * window
	pub := localClient(t, b2, "e2e-pub")
	received := 0
	for i := 0; i < total; i++ {
		if err := pub.Publish("/credit/e2e", event.KindRTP, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
		// Consume as we go so the receiver keeps granting.
		for tryRecv(s, time.Millisecond) != nil {
			received++
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for received < total/2 && time.Now().Before(deadline) {
		if tryRecv(s, 50*time.Millisecond) != nil {
			received++
		}
	}
	if received < total/2 {
		t.Fatalf("received %d of %d best-effort events; link wedged", received, total)
	}
	ps := b2.peerSessionByID("e1")
	if ps == nil {
		t.Fatal("no peer session")
	}
	waitCondition(t, 5*time.Second, "grants advanced the consumed floor", func() bool {
		return ps.creditConsumed.Load() >= window
	})
}

// TestMeshCloseDuringCreditStall churns session close against a route
// sweep that is credit-stalling on the same link — the admit path
// (atomics + stall counter) racing detach, for the race detector.
func TestMeshCloseDuringCreditStall(t *testing.T) {
	b := New(Config{ID: "churn-cr", PeerCreditWindow: 4})
	defer b.Stop()

	for round := 0; round < 20; round++ {
		s := newSession(b, newCaptureConn(), fmt.Sprintf("churn-%d", round), true)
		s.creditStallCtr = b.Metrics().Counter("broker.peer.churn.credit_stalls")
		if err := b.subs.Add("/churn/t", s); err != nil {
			t.Fatal(err)
		}
		b.mu.Lock()
		b.peers[s] = struct{}{}
		b.refreshPeerSnapLocked()
		b.mu.Unlock()

		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			sweep := b.newRouteSweep()
			events := make([]*event.Event, 8)
			for i := range events {
				events[i] = burstEvent(uint64(round*1000+i+1), "/churn/t")
			}
			for k := 0; k < 10; k++ {
				sweep.routeBatch(events, nil)
			}
		}()
		go func() {
			defer wg.Done()
			s.queue.close()
			s.noteCreditGrant(uint64(round + 1))
		}()
		wg.Wait()
		b.subs.Remove("/churn/t", s)
		b.mu.Lock()
		delete(b.peers, s)
		b.refreshPeerSnapLocked()
		b.mu.Unlock()
	}
}
