package broker

import (
	"fmt"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
)

// ringOfBrokers stands up n brokers linked in a dial ring over
// in-process pipes (b[i] -> b[i+1], plus the closing link).
func ringOfBrokers(t *testing.T, n int, prefix string) []*Broker {
	t.Helper()
	brokers := make([]*Broker, n)
	for i := range brokers {
		brokers[i] = newTestBroker(t, fmt.Sprintf("%s%d", prefix, i))
	}
	for i := range brokers {
		linkBrokers(t, brokers[i], brokers[(i+1)%n])
	}
	return brokers
}

// TestMeshRoutedNoFrameToSubscriberlessLink is the spanning-tree
// invariant on a 4-ring: with the only subscriber on broker 1, a flood
// from broker 0 crosses exactly the 0-1 link — no frame is ever staged
// on a link whose downstream subtree has no matching subscription, even
// though every broker advertises a route toward the subscriber.
func TestMeshRoutedNoFrameToSubscriberlessLink(t *testing.T) {
	brokers := ringOfBrokers(t, 4, "rt")

	sub := localClient(t, brokers[1], "rt-sub")
	s, err := sub.Subscribe("/rt/only", 256)
	if err != nil {
		t.Fatal(err)
	}
	// Advertisements reach every broker (hop-cost re-propagation crosses
	// the whole ring).
	for _, b := range brokers {
		b := b
		waitCondition(t, 5*time.Second, "advertisement converges", func() bool {
			return len(b.matchSessions("/rt/only")) == 1
		})
	}

	const n = 50
	pub := localClient(t, brokers[0], "rt-pub")
	for i := 0; i < n; i++ {
		if err := pub.Publish("/rt/only", event.KindChat, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[event.Key]int)
	for len(seen) < n {
		e := recvOne(t, s, 5*time.Second)
		seen[e.Key()]++
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("event %v delivered %d times, want exactly once", k, c)
		}
	}

	// Only broker 0's link to broker 1 carried data. Every other
	// direction — 0->3, and everything out of brokers 1..3 — stays at
	// zero forwarded frames.
	for i, b := range brokers {
		for j := range brokers {
			if i == j {
				continue
			}
			fwd := b.Metrics().Counter(fmt.Sprintf("broker.peer.rt%d.forwarded", j)).Value()
			if i == 0 && j == 1 {
				if fwd < n {
					t.Fatalf("publishing broker forwarded %d frames toward the subscriber, want >= %d", fwd, n)
				}
				continue
			}
			if fwd != 0 {
				t.Fatalf("link rt%d->rt%d carried %d frames; no subscriber downstream, want 0", i, j, fwd)
			}
		}
	}
}

// TestMeshRoutedWithdrawalPrunesRoute: unsubscribing withdraws the
// advertisement, which prunes the routing entry — subsequent publishes
// forward nothing.
func TestMeshRoutedWithdrawalPrunesRoute(t *testing.T) {
	b1 := newTestBroker(t, "wd1")
	b2 := newTestBroker(t, "wd2")
	linkBrokers(t, b1, b2)

	sub := localClient(t, b2, "wd-sub")
	s, err := sub.Subscribe("/wd/t", 64)
	if err != nil {
		t.Fatal(err)
	}
	waitCondition(t, 5*time.Second, "advertisement applied", func() bool {
		return len(b1.matchSessions("/wd/t")) == 1
	})
	pub := localClient(t, b1, "wd-pub")
	if err := pub.Publish("/wd/t", event.KindChat, []byte("before")); err != nil {
		t.Fatal(err)
	}
	if e := recvOne(t, s, 5*time.Second); string(e.Payload) != "before" {
		t.Fatalf("payload %q", e.Payload)
	}

	if err := s.Cancel(); err != nil {
		t.Fatal(err)
	}
	waitCondition(t, 5*time.Second, "withdrawal pruned the route", func() bool {
		b1.mu.RLock()
		_, routed := b1.meshRoutes["/wd/t"]
		b1.mu.RUnlock()
		return len(b1.matchSessions("/wd/t")) == 0 && !routed
	})

	fwd := b1.Metrics().Counter("broker.peer.wd2.forwarded")
	before := fwd.Value()
	if err := pub.Publish("/wd/t", event.KindChat, []byte("after")); err != nil {
		t.Fatal(err)
	}
	// The publish routes synchronously on the local path; poll briefly to
	// let any (incorrect) forwarding surface.
	time.Sleep(100 * time.Millisecond)
	if got := fwd.Value(); got != before {
		t.Fatalf("withdrawn pattern still forwarded %d frames", got-before)
	}
}

// TestMeshRoutedStagedOncePerBurst is the routed batching contract:
// a burst stages on the chosen next-hop link with ONE queue lock (one
// wakeup), and stages nothing at all on a costlier link advertising the
// same origin.
func TestMeshRoutedStagedOncePerBurst(t *testing.T) {
	b := New(Config{ID: "plan-lock"})
	defer b.Stop()

	near := newSession(b, newCaptureConn(), "plan-near", true)
	far := newSession(b, newCaptureConn(), "plan-far", true)
	near.remotePatterns["/plan/t"] = map[string]advEntry{
		"origin-x": {last: time.Now(), hops: 0},
	}
	far.remotePatterns["/plan/t"] = map[string]advEntry{
		"origin-x": {last: time.Now(), hops: 5},
	}
	b.mu.Lock()
	b.peers[near] = struct{}{}
	b.peers[far] = struct{}{}
	b.refreshPeerSnapLocked()
	b.recomputePatternRouteLocked("/plan/t")
	b.mu.Unlock()

	if plan := b.meshPlans.Load().planFor("/plan/t"); plan == nil || plan.maskFor(near) == 0 || plan.maskFor(far) != 0 {
		t.Fatalf("plan did not choose the cheapest link: %+v", plan)
	}

	const burst = 16
	events := make([]*event.Event, burst)
	for i := range events {
		events[i] = burstEvent(uint64(i+1), "/plan/t")
	}
	sweep := b.newRouteSweep()
	sweep.routeBatch(events, nil)

	if locks := near.queue.pushLockCount(); locks != 1 {
		t.Fatalf("chosen link: %d push lock acquisitions for one burst, want 1", locks)
	}
	if depth := near.queue.depth(); depth != burst {
		t.Fatalf("chosen link: queue depth %d, want %d", depth, burst)
	}
	if locks := far.queue.pushLockCount(); locks != 0 {
		t.Fatalf("costlier link: %d push locks, want 0 (nothing staged)", locks)
	}
	if depth := far.queue.depth(); depth != 0 {
		t.Fatalf("costlier link: queue depth %d, want 0", depth)
	}
}

// TestMeshRoutedRerouteAroundRingReliable: on a supervised 3-ring, the
// direct link to the subscriber's broker dies mid-stream. New reliable
// traffic reroutes through the third broker (promotion is local — the
// alternate path's cost was already known), the salvage replays across
// the healed link, and the subscriber sees all 200 events exactly once.
func TestMeshRoutedRerouteAroundRingReliable(t *testing.T) {
	ids := []string{"rr0", "rr1", "rr2"}
	brokers := make([]*Broker, 3)
	addrs := make([]string, 3)
	for i := range brokers {
		brokers[i] = newTestBroker(t, ids[i])
		l, err := brokers[i].Listen("tcp://127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr()
	}
	for i := range brokers {
		m := NewMesh(brokers[i], fastMeshConfig(addrs[(i+1)%3]))
		t.Cleanup(m.Stop)
	}
	waitCondition(t, 5*time.Second, "ring converges", func() bool {
		for _, b := range brokers {
			if b.PeerCount() != 2 {
				return false
			}
		}
		return true
	})

	// Subscriber on broker 2, publisher on broker 0: the chosen path is
	// the direct 0-2 link.
	sub := localClient(t, brokers[2], "rr-sub")
	s, err := sub.Subscribe("/rr/t", 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range brokers[:2] {
		b := b
		waitCondition(t, 5*time.Second, "advertisement converges", func() bool {
			return len(b.matchSessions("/rr/t")) == 1
		})
	}

	const half = 100
	pub := localClient(t, brokers[0], "rr-pub")
	for i := 0; i < half; i++ {
		if err := pub.PublishReliable("/rr/t", event.KindChat, []byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	fwd := brokers[0].Metrics().Counter("broker.peer.rr2.forwarded")
	waitCondition(t, 5*time.Second, "first half on the direct link", func() bool {
		return fwd.Value() >= half
	})

	// Cut the direct link. Detach immediately promotes the route via
	// broker 1; in-flight unacked events ride the salvage stash until the
	// supervisor heals the link.
	ps := brokers[0].peerSessionByID("rr2")
	if ps == nil {
		t.Fatal("no direct peer session to kill")
	}
	ps.close()

	for i := 0; i < half; i++ {
		if err := pub.PublishReliable("/rr/t", event.KindChat, []byte(fmt.Sprintf("post-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	seen := make(map[event.Key]int)
	deadline := time.Now().Add(10 * time.Second)
	for len(seen) < 2*half && time.Now().Before(deadline) {
		if e := tryRecv(s, 100*time.Millisecond); e != nil {
			seen[e.Key()]++
		}
	}
	if len(seen) != 2*half {
		t.Fatalf("subscriber saw %d distinct events, want %d", len(seen), 2*half)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("event %v delivered %d times, want exactly once", k, c)
		}
	}
}
