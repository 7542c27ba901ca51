// Race-tested plane: the broker federation. Under go test -race these
// tests check the one-lock/one-wakeup peer-link forwarding invariant,
// link drop mid-burst with reliable salvage across the rejoined link,
// partition -> heal -> advertisement re-sync, the TTL/dedup loop guard on
// a 3-broker cycle and close-during-forward churn. Beside them,
// meshroute_test.go holds the routed-forwarding invariants (no frame to a
// subscriber-less link, staged once per burst, reroute around a dropped
// ring link, withdrawal pruning), credit_test.go the per-link credit
// flow control and dedup_test.go the sharded dedup cache. Mesh links are
// goroutine-per-link supervisors over shared routing state, so a missed
// lock shows up here first.

package broker

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// fastMeshConfig returns supervision knobs scaled for tests: links
// redial within milliseconds and heartbeat every few tens of ms.
func fastMeshConfig(peers ...string) MeshConfig {
	return MeshConfig{
		Peers:             peers,
		heartbeatInterval: 25 * time.Millisecond,
		redialMin:         5 * time.Millisecond,
		redialMax:         50 * time.Millisecond,
	}
}

// TestBackoffLadder pins the redial ladder mesh links and resilient
// clients share: the delay doubles from the floor to the cap, every delay
// is jittered into [d/2, d), a success resets to the floor, the zero
// config takes the 100ms / 5s defaults, and sleep returns false promptly
// once its stop channel is closed.
func TestBackoffLadder(t *testing.T) {
	ms := time.Millisecond
	ladder := []time.Duration{8 * ms, 16 * ms, 32 * ms, 64 * ms, 100 * ms, 100 * ms}
	for range 200 {
		bo := newBackoff(8*ms, 100*ms)
		for i, d := range ladder {
			if got := bo.next(); got < d/2 || got >= d {
				t.Fatalf("step %d: delay %v outside [%v, %v)", i, got, d/2, d)
			}
		}
		bo.reset()
		if got := bo.next(); got < 4*ms || got >= 8*ms {
			t.Fatalf("after reset: delay %v outside [4ms, 8ms)", got)
		}
	}
	if bo := newBackoff(0, 0); bo.lo != 100*ms || bo.hi != 5*time.Second {
		t.Fatalf("defaults = %v / %v, want 100ms / 5s", bo.lo, bo.hi)
	}
	if bo := newBackoff(10*time.Second, 0); bo.hi != 10*time.Second {
		t.Fatalf("cap %v below the floor", bo.hi)
	}

	stop := make(chan struct{})
	if !sleep(stop, ms) {
		t.Fatal("sleep reported stop with stop open")
	}
	close(stop)
	start := time.Now()
	if sleep(stop, time.Hour) {
		t.Fatal("sleep did not report stop")
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("sleep took %v to notice stop", waited)
	}
}

// TestMeshForwardSingleLockPerLink is the inter-broker batching
// contract: a burst fanned out to N peer links costs one queue lock
// acquisition (and one staged batch) per link — peer sessions ride the
// same staged batch path as client sessions, with the TTL-patched
// shared frame.
func TestMeshForwardSingleLockPerLink(t *testing.T) {
	b := New(Config{ID: "lock-mesh"})
	defer b.Stop()

	const links = 8
	const burst = 16
	peers := make([]*session, 0, links)
	for i := 0; i < links; i++ {
		s := newSession(b, newCaptureConn(), fmt.Sprintf("lock-peer-%d", i), true)
		if err := b.subs.Add("/mesh/t", s); err != nil {
			t.Fatal(err)
		}
		peers = append(peers, s)
	}

	events := make([]*event.Event, burst)
	for i := range events {
		events[i] = burstEvent(uint64(i+1), "/mesh/t")
	}
	sweep := b.newRouteSweep()
	sweep.routeBatch(events, nil)

	for i, s := range peers {
		if locks := s.queue.pushLockCount(); locks != 1 {
			t.Fatalf("peer %d: %d push lock acquisitions for one burst, want 1", i, locks)
		}
		if depth := s.queue.depth(); depth != burst {
			t.Fatalf("peer %d: queue depth %d, want %d", i, depth, burst)
		}
	}
	sweep.routeBatch(events, nil)
	for i, s := range peers {
		if locks := s.queue.pushLockCount(); locks != 2 {
			t.Fatalf("peer %d: %d push locks after two bursts, want 2", i, locks)
		}
	}
}

// TestPeerSalvageReplaysUnacked: reliable events unacknowledged when a
// peer link dies are stashed at detach and replayed, in order, onto the
// peer's next link.
func TestPeerSalvageReplaysUnacked(t *testing.T) {
	b := newTestBroker(t, "sal")

	ca, cb := transport.Pipe("sal", "peer-sal")
	s, err := b.attach(ca, "peer-sal", true, true)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	for i := uint64(1); i <= n; i++ {
		e := event.New("/sal/t", event.KindChat, []byte("salvage"))
		e.Source = "sal-pub"
		e.ID = i
		e.Reliable = true
		s.sendReliable(e)
	}
	// Drain the wire but never ack, so everything stays in the window.
	for i := 0; i < n; i++ {
		if _, err := cb.Recv(); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}
	s.close()

	b.mu.RLock()
	stash := b.relStash["peer-sal"]
	b.mu.RUnlock()
	if stash == nil || len(stash.events) != n {
		t.Fatalf("relStash holds %v, want %d salvaged events", stash, n)
	}

	ca2, cb2 := transport.Pipe("sal", "peer-sal")
	s2, err := b.attach(ca2, "peer-sal", true, true)
	if err != nil {
		t.Fatal(err)
	}
	// The handshake replays the stash after queueing its hello; this
	// hand-rolled link skips the hello, so replay directly.
	b.replaySalvaged(s2)
	for want := uint64(1); want <= n; want++ {
		e, err := cb2.Recv()
		if err != nil {
			t.Fatalf("replay recv: %v", err)
		}
		if e.Topic != "/sal/t" || e.ID != want {
			t.Fatalf("replayed event %d = %s id %d, want /sal/t id %d", want, e.Topic, e.ID, want)
		}
	}
	b.mu.RLock()
	_, still := b.relStash["peer-sal"]
	b.mu.RUnlock()
	if still {
		t.Fatal("relStash not drained after replay")
	}
}

// meshPair stands up two TCP-linked brokers with a mesh supervisor on
// the dialing side.
func meshPair(t *testing.T) (b1, b2 *Broker, mesh *Mesh) {
	t.Helper()
	b1 = newTestBroker(t, "m1")
	b2 = newTestBroker(t, "m2")
	l, err := b1.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mesh = NewMesh(b2, fastMeshConfig(l.Addr()))
	t.Cleanup(mesh.Stop)
	waitCondition(t, 5*time.Second, "mesh link up", func() bool {
		return b1.PeerCount() == 1 && b2.PeerCount() == 1
	})
	return b1, b2, mesh
}

// TestMeshLinkDropMidBurstReliable kills the peer link while a reliable
// stream is in flight: the unacked tail is salvaged, the supervisor
// redials, the salvage replays across the rejoined link, and the
// subscriber sees every event exactly once.
func TestMeshLinkDropMidBurstReliable(t *testing.T) {
	b1, b2, _ := meshPair(t)

	sub := localClient(t, b1, "rel-sub")
	s, err := sub.Subscribe("/mesh/rel", 1024)
	if err != nil {
		t.Fatal(err)
	}
	waitCondition(t, 5*time.Second, "advertisement reaches m2", func() bool {
		return len(b2.matchSessions("/mesh/rel")) > 0
	})

	const half = 100
	pub := localClient(t, b2, "rel-pub")
	for i := 0; i < half; i++ {
		if err := pub.PublishReliable("/mesh/rel", event.KindChat, []byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the whole first half is on (or queued for) the peer
	// link, then cut it — whatever was not yet acked rides the salvage
	// stash.
	fwd := b2.Metrics().Counter("broker.peer.m1.forwarded")
	waitCondition(t, 5*time.Second, "first half forwarded", func() bool {
		return fwd.Value() >= half
	})
	ps := b2.peerSessionByID("m1")
	if ps == nil {
		t.Fatal("no peer session to kill")
	}
	ps.close()

	// The supervisor redials; the handshake snapshot re-syncs the
	// subscription before new traffic routes.
	waitCondition(t, 5*time.Second, "link re-established", func() bool {
		return b2.PeerCount() == 1 && len(b2.matchSessions("/mesh/rel")) > 0
	})
	for i := 0; i < half; i++ {
		if err := pub.PublishReliable("/mesh/rel", event.KindChat, []byte(fmt.Sprintf("post-%d", i))); err != nil {
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

// tryRecv returns one event from s or nil after the timeout.
func tryRecv(s *Subscription, within time.Duration) *event.Event {
	e, _ := recvWithin(s, within)
	return e
}

// TestMeshPartitionHealResync: a subscription created while the mesh is
// partitioned converges to the far side once the supervisor heals the
// link, and the redial counters record the recovery.
func TestMeshPartitionHealResync(t *testing.T) {
	b1, b2, mesh := meshPair(t)

	// Partition.
	ps := b2.peerSessionByID("m1")
	if ps == nil {
		t.Fatal("no peer session")
	}
	ps.close()

	// Soft state changes on the far side during the partition.
	sub := localClient(t, b1, "heal-sub")
	s, err := sub.Subscribe("/mesh/heal", 64)
	if err != nil {
		t.Fatal(err)
	}

	// Heal: the supervisor redials and the handshake snapshot carries
	// the partition-era subscription across.
	waitCondition(t, 5*time.Second, "link heals and adv re-syncs", func() bool {
		return b2.PeerCount() == 1 && len(b2.matchSessions("/mesh/heal")) > 0
	})
	pub := localClient(t, b2, "heal-pub")
	if err := pub.Publish("/mesh/heal", event.KindChat, []byte("after-heal")); err != nil {
		t.Fatal(err)
	}
	e := recvOne(t, s, 5*time.Second)
	if string(e.Payload) != "after-heal" {
		t.Fatalf("payload %q", e.Payload)
	}

	if v := b2.Metrics().Counter("broker.mesh.redials").Value(); v < 1 {
		t.Fatalf("broker.mesh.redials = %d, want >= 1", v)
	}
	var linkRedials uint64
	for _, ls := range mesh.Links() {
		linkRedials += ls.Redials
	}
	if linkRedials < 1 {
		t.Fatalf("mesh link redial count = %d, want >= 1", linkRedials)
	}
}

// TestMeshTTLLoopGuard3Cycle: on a 3-broker cyclic peer-to-peer mesh,
// which floods every peer link, an event reaches every subscriber
// exactly once — the duplicate suppression (with the TTL decrement as
// backstop) kills the loop, and the redundant ring arrivals land in the
// dup counters instead of client queues. (Routed client-server mode
// never produces the redundant copies in the first place; this
// exercises the safety net it keeps for convergence windows.)
func TestMeshTTLLoopGuard3Cycle(t *testing.T) {
	b1 := newTestBrokerCfg(t, Config{ID: "c1", Mode: ModePeerToPeer})
	b2 := newTestBrokerCfg(t, Config{ID: "c2", Mode: ModePeerToPeer})
	b3 := newTestBrokerCfg(t, Config{ID: "c3", Mode: ModePeerToPeer})
	linkBrokers(t, b1, b2)
	linkBrokers(t, b2, b3)
	linkBrokers(t, b3, b1)

	subs := make([]*Subscription, 0, 3)
	for i, b := range []*Broker{b1, b2, b3} {
		c := localClient(t, b, fmt.Sprintf("loop-sub-%d", i))
		s, err := c.Subscribe("/loop/t", 64)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	// Every broker must see three targets: its local subscriber plus
	// both peers advertising theirs.
	for _, b := range []*Broker{b1, b2, b3} {
		b := b
		waitCondition(t, 5*time.Second, "advertisements converge", func() bool {
			return len(b.matchSessions("/loop/t")) == 3
		})
	}

	pub := localClient(t, b1, "loop-pub")
	if err := pub.Publish("/loop/t", event.KindChat, []byte("once-around")); err != nil {
		t.Fatal(err)
	}
	for i, s := range subs {
		e := recvOne(t, s, 5*time.Second)
		if string(e.Payload) != "once-around" {
			t.Fatalf("sub %d payload %q", i, e.Payload)
		}
	}
	// The cycle produced redundant arrivals; they must have been
	// absorbed broker-side, never delivered. The second-hop copies may
	// still be in flight when the subscribers report, so poll.
	waitCondition(t, 5*time.Second, "ring duplicates absorbed", func() bool {
		var dups uint64
		for _, b := range []*Broker{b1, b2, b3} {
			dups += b.Metrics().Counter("broker.duplicates").Value()
		}
		return dups > 0
	})
	for _, s := range subs {
		expectNone(t, s, 200*time.Millisecond)
	}
}

// TestMeshCloseDuringForward churns the peer link while a publisher
// floods through it — the close/detach/salvage/redial path racing the
// staged forwarding path, for the race detector.
func TestMeshCloseDuringForward(t *testing.T) {
	b1, b2, _ := meshPair(t)

	sub := localClient(t, b1, "churn-sub")
	if _, err := sub.Subscribe("/mesh/churn", 1024); err != nil {
		t.Fatal(err)
	}
	waitCondition(t, 5*time.Second, "advertisement reaches m2", func() bool {
		return len(b2.matchSessions("/mesh/churn")) > 0
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var published atomic.Uint64
	pub := localClient(t, b2, "churn-pub")
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := pub.Publish("/mesh/churn", event.KindRTP, []byte("churn")); err != nil {
				return
			}
			published.Add(1)
		}
	}()

	for i := 0; i < 5; i++ {
		waitCondition(t, 5*time.Second, "link up", func() bool {
			return b2.PeerCount() == 1
		})
		if ps := b2.peerSessionByID("m1"); ps != nil {
			ps.close()
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if published.Load() == 0 {
		t.Fatal("publisher made no progress")
	}
	waitCondition(t, 5*time.Second, "link settles", func() bool {
		return b2.PeerCount() == 1
	})
}

// TestAckSlotCoalesces: consecutive cumulative acks deposited while the
// writer is busy collapse into the pending slot — the writer emits one
// ack event carrying the newest floor, ahead of both lanes.
func TestAckSlotCoalesces(t *testing.T) {
	q := newSendQueue(8)
	q.pushReliable(event.New("/x", event.KindChat, nil))
	q.pushAck(3)
	q.pushAck(7)
	q.pushAck(5)

	it, st := popOne(q)
	if st != popOK || it.e == nil {
		t.Fatalf("popOne = %v, %v", it, st)
	}
	if it.e.Topic != topicAck {
		t.Fatalf("first drained item is %q, want the pending ack", it.e.Topic)
	}
	if !it.reliable {
		t.Fatal("ack must ride the reliable (flush-now) lane")
	}
	if got := it.e.Headers[hdrRSeq]; got != "7" {
		t.Fatalf("coalesced ack floor = %s, want 7 (the max)", got)
	}
	if n := q.ackCoalesceCount(); n != 2 {
		t.Fatalf("acksCoalesced = %d, want 2", n)
	}
	// The reliable event queued before the acks follows.
	it, st = popOne(q)
	if st != popOK || it.e == nil || it.e.Topic != "/x" {
		t.Fatalf("second item = %v, %v", it, st)
	}
	if _, st = popOne(q); st != popEmpty {
		t.Fatalf("queue not drained: %v", st)
	}
}
