package broker

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/testutil"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// captureConn is a FrameConn that records every flush so batching tests
// can assert exactly which events went out together.
type captureConn struct {
	mu      sync.Mutex
	flushes [][]*event.Event
	sends   []*event.Event
	done    chan struct{}
	once    sync.Once
}

func newCaptureConn() *captureConn {
	return &captureConn{done: make(chan struct{})}
}

func (c *captureConn) Send(e *event.Event) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sends = append(c.sends, e)
	return nil
}

func (c *captureConn) SendFrames(frames [][]byte) error {
	batch := make([]*event.Event, 0, len(frames))
	for _, f := range frames {
		e, err := event.Unmarshal(f)
		if err != nil {
			return err
		}
		batch = append(batch, e.Clone())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushes = append(c.flushes, batch)
	return nil
}

func (c *captureConn) Recv() (*event.Event, error) {
	<-c.done
	return nil, transport.ErrClosed
}

func (c *captureConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

func (c *captureConn) Label() string { return "capture" }

func (c *captureConn) flushCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.flushes)
}

func (c *captureConn) flush(i int) []*event.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushes[i]
}

func (c *captureConn) allFlushed() []*event.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*event.Event
	for _, f := range c.flushes {
		out = append(out, f...)
	}
	return out
}

// startWriter wires a session around conn with only its writer
// running, giving tests full control of the queue.
func startWriter(t *testing.T, b *Broker, conn transport.Conn) *session {
	t.Helper()
	s := newSession(b, conn, "writer-under-test", false)
	runPrivatePool(t, s)
	return s
}

// runPrivatePool drains s through a private writer pool — the writer a
// SendBlocker conn gets — until the test ends. Items queued before the
// call signalled no pool, so the pool is woken for them here.
func runPrivatePool(t *testing.T, s *session) {
	t.Helper()
	s.ownPool = true
	s.bindPool(newWriterPool(s.b))
	s.wg.Add(1)
	go s.pool.run(&s.wg)
	s.pool.rewake(s)
	t.Cleanup(func() {
		s.close()
		s.wg.Wait()
	})
}

func beItem(id uint64, payload int) (*event.Event, *event.Frame) {
	e := event.New("/dp/t", event.KindRTP, make([]byte, payload))
	e.Source = "dp"
	e.ID = id
	var arena event.FrameArena
	f := arena.NewFrame(e)
	return e, &f
}

func waitFor(t *testing.T, within time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestBatchFlushOnMaxBatchBytes: the writer must force a flush as soon as
// the aggregated batch reaches MaxBatchBytes, long before any linger
// expires.
func TestBatchFlushOnMaxBatchBytes(t *testing.T) {
	b := New(Config{ID: "size", MaxBatchBytes: 2500, FlushInterval: 10 * time.Second})
	defer b.Stop()
	conn := newCaptureConn()
	s := startWriter(t, b, conn)
	for i := uint64(1); i <= 3; i++ {
		e, f := beItem(i, 1200)
		s.queue.pushBestEffort(e, f)
	}
	waitFor(t, 2*time.Second, func() bool { return conn.flushCount() >= 1 },
		"no size-triggered flush despite 10s linger")
	if got := conn.flush(0); len(got) != 2 {
		t.Fatalf("size flush carried %d events, want 2", len(got))
	}
	// The third event must still be lingering (interval far away).
	time.Sleep(50 * time.Millisecond)
	if conn.flushCount() != 1 {
		t.Fatalf("unexpected extra flush before linger expiry: %d", conn.flushCount())
	}
}

// TestBatchFlushOnFlushInterval: once the queue idles, a non-empty batch
// goes out after FlushInterval even though MaxBatchBytes is far away.
func TestBatchFlushOnFlushInterval(t *testing.T) {
	b := New(Config{ID: "linger", MaxBatchBytes: 1 << 20, FlushInterval: 40 * time.Millisecond})
	defer b.Stop()
	conn := newCaptureConn()
	s := newSession(b, conn, "linger-writer", false)
	// Queue both events before the writer starts so they coalesce.
	e1, f1 := beItem(1, 100)
	e2, f2 := beItem(2, 100)
	s.queue.pushBestEffort(e1, f1)
	s.queue.pushBestEffort(e2, f2)
	runPrivatePool(t, s)
	waitFor(t, 2*time.Second, func() bool { return conn.flushCount() >= 1 },
		"linger flush never happened")
	if got := conn.flush(0); len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("linger flush = %v", got)
	}
}

// TestReliableNeverLingersAndFlushesBeforeClose: reliable events flush
// immediately (they must not wait out FlushInterval), and a queue close
// flushes everything still batched.
func TestReliableNeverLingersAndFlushesBeforeClose(t *testing.T) {
	b := New(Config{ID: "rel", MaxBatchBytes: 1 << 20, FlushInterval: 10 * time.Second})
	defer b.Stop()
	conn := newCaptureConn()
	s := startWriter(t, b, conn)

	rel := event.New("/dp/rel", event.KindControl, nil)
	rel.Source, rel.ID = "dp", 7
	s.queue.pushReliable(rel)
	waitFor(t, time.Second, func() bool { return conn.flushCount() >= 1 },
		"reliable event lingered past its turn")
	if got := conn.flush(0); len(got) != 1 || got[0].Topic != "/dp/rel" {
		t.Fatalf("reliable flush = %v", got)
	}

	// A best-effort event now lingers (10s interval)…
	e, f := beItem(8, 100)
	s.queue.pushBestEffort(e, f)
	time.Sleep(30 * time.Millisecond)
	if conn.flushCount() != 1 {
		t.Fatalf("best-effort flushed before linger/close: %d", conn.flushCount())
	}
	// …until the queue closes, which must not strand it in the batcher.
	s.queue.close()
	waitFor(t, time.Second, func() bool { return conn.flushCount() >= 2 },
		"close did not flush the pending batch")
	if got := conn.flush(1); len(got) != 1 || got[0].ID != 8 {
		t.Fatalf("close flush = %v", got)
	}
}

// TestBatchOrderingAcrossLanes: the reliable lane drains first, and FIFO
// order holds within each lane across flush boundaries.
func TestBatchOrderingAcrossLanes(t *testing.T) {
	b := New(Config{ID: "order", MaxBatchBytes: 1 << 20, FlushInterval: 20 * time.Millisecond})
	defer b.Stop()
	conn := newCaptureConn()
	s := newSession(b, conn, "order-writer", false)
	for i := uint64(1); i <= 3; i++ {
		e, f := beItem(i, 50)
		s.queue.pushBestEffort(e, f)
	}
	for i := uint64(101); i <= 102; i++ {
		rel := event.New("/dp/rel", event.KindControl, nil)
		rel.Source, rel.ID = "dp", i
		s.queue.pushReliable(rel)
	}
	runPrivatePool(t, s)
	waitFor(t, 2*time.Second, func() bool { return len(conn.allFlushed()) == 5 },
		"not all events reached the wire")
	got := conn.allFlushed()
	want := []uint64{101, 102, 1, 2, 3}
	for i, e := range got {
		if e.ID != want[i] {
			t.Fatalf("wire order %v, want %v", ids(got), want)
		}
	}
}

func ids(es []*event.Event) []uint64 {
	out := make([]uint64, len(es))
	for i, e := range es {
		out[i] = e.ID
	}
	return out
}

// TestPublishDoesNotTakeBrokerMutex: the match/deliver path must stay
// fully decoupled from the control-plane mutex — a publish completes and
// is delivered while b.mu is held exclusively.
func TestPublishDoesNotTakeBrokerMutex(t *testing.T) {
	b := newTestBroker(t, "no-mutex")
	sub := localClient(t, b, "sub")
	s, err := sub.Subscribe("/nm/t", 16)
	if err != nil {
		t.Fatal(err)
	}

	b.mu.Lock()
	published := make(chan error, 1)
	go func() {
		e := event.New("/nm/t", event.KindData, []byte("lock-free"))
		e.Source, e.ID = "pub", 1
		published <- b.Publish(e)
	}()
	select {
	case err := <-published:
		if err != nil {
			b.mu.Unlock()
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		b.mu.Unlock()
		t.Fatal("publish blocked on the broker-wide mutex")
	}
	// Delivery all the way to the client must also proceed under b.mu.
	if e := recvOne(t, s, 2*time.Second); string(e.Payload) != "lock-free" {
		b.mu.Unlock()
		t.Fatalf("got %v", e)
	}
	b.mu.Unlock()
}

// TestPeerAdvertisedAndFloodedDeliversOnce: a peer that both advertised a
// matching pattern and is reachable by peer-to-peer flooding must see the
// event exactly once on the wire — not advert-routed and then flooded
// again.
func TestPeerAdvertisedAndFloodedDeliversOnce(t *testing.T) {
	b := New(Config{ID: "dd-hub", Mode: ModePeerToPeer})
	defer b.Stop()
	peerEnd, brokerEnd := transport.Pipe("broker", "remote-peer")
	defer peerEnd.Close()

	go b.AcceptConn(brokerEnd)
	if err := peerEnd.Send(peerHelloEvent("remote-peer", ModePeerToPeer, "")); err != nil {
		t.Fatal(err)
	}

	// Count data events arriving at the remote peer.
	var mu sync.Mutex
	var got []*event.Event
	go func() {
		for {
			e, err := peerEnd.Recv()
			if err != nil {
				return
			}
			if e.Topic == "/dd/x" {
				mu.Lock()
				got = append(got, e)
				mu.Unlock()
			}
		}
	}()

	waitFor(t, 2*time.Second, func() bool { return b.PeerCount() == 1 },
		"peer never attached")
	// The peer advertises a matching pattern (a mixed-mode or legacy peer
	// can do this even in P2P routing), putting it in the routing trie.
	if err := peerEnd.Send(subAdvEvent(advAdd, "/dd/#", "remote-peer", 1, 0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(b.matchSessions("/dd/x")) == 1 },
		"advertisement never applied")

	e := event.New("/dd/x", event.KindData, []byte("once"))
	e.Source, e.ID = "origin", 42
	if err := b.Publish(e); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 2*time.Second, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) >= 1 },
		"event never reached the peer")
	time.Sleep(150 * time.Millisecond) // window for an (incorrect) duplicate
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("peer received the event %d times on the wire, want exactly 1", len(got))
	}
	if got[0].TTL != e.TTL-1 {
		t.Fatalf("forwarded TTL = %d, want %d", got[0].TTL, e.TTL-1)
	}
}

// TestHandleAckFloor: cumulative acks release exactly the acked prefix,
// cost proportional to newly acked events, and tolerate replays and
// overshoot.
func TestHandleAckFloor(t *testing.T) {
	b := New(Config{ID: "ack"})
	defer b.Stop()
	conn := newCaptureConn()
	s := newSession(b, conn, "acky", false)
	base := event.New("/a/t", event.KindControl, nil)
	base.Reliable = true
	for i := 0; i < 10; i++ {
		s.sendReliable(base)
	}
	if s.unackedLen() != 10 {
		t.Fatalf("unacked = %d, want 10", s.unackedLen())
	}
	s.handleAck(4)
	if s.unackedLen() != 6 {
		t.Fatalf("after ack 4: unacked = %d, want 6", s.unackedLen())
	}
	s.handleAck(4) // replay
	if s.unackedLen() != 6 {
		t.Fatalf("replayed ack changed state: %d", s.unackedLen())
	}
	s.handleAck(2) // regression is ignored
	if s.unackedLen() != 6 {
		t.Fatalf("regressing ack changed state: %d", s.unackedLen())
	}
	s.handleAck(10_000) // overshoot clamps to nextRSeq
	if s.unackedLen() != 0 {
		t.Fatalf("after overshoot ack: unacked = %d, want 0", s.unackedLen())
	}
	// The floor advances so a subsequent send/ack cycle still works.
	s.sendReliable(base)
	s.handleAck(11)
	if s.unackedLen() != 0 {
		t.Fatalf("post-floor ack failed: %d", s.unackedLen())
	}
}

// TestReliableSendAckAllocs gates one framed reliable round trip: a
// sendReliable, the writer's pop and the cumulative ack that releases
// it cost the encoded frame's buffer and its Frame, and nothing for the
// window slot, the send-order slot or the queue slot, which are reused
// once the rings have grown.
func TestReliableSendAckAllocs(t *testing.T) {
	testutil.SkipAllocGateUnderRace(t)
	b := New(Config{ID: "rel-allocs"})
	defer b.Stop()
	s := newSession(b, newCaptureConn(), "rel-allocs-sub", false)
	if !s.framed {
		t.Fatal("setup: capture conn session is not framed")
	}
	e := event.New("/rel/allocs", event.KindControl, []byte("payload"))
	e.Reliable = true
	buf := make([]outItem, 0, 1)
	got := testing.AllocsPerRun(100, func() {
		s.sendReliable(e)
		var st popState
		if buf, st = s.queue.popBatch(buf[:0], 1); st != popOK {
			t.Fatal("reliable item not queued")
		}
		s.handleAck(s.nextRSeq)
	})
	if got > 2 {
		t.Fatalf("one reliable send/ack cycle allocated %.0f times, want <= 2 (buffer, Frame)", got)
	}
}

// TestPerSessionGaugesPublished: the housekeeping loop surfaces per-session
// queue-drop and reliable-window gauges in the metrics registry.
func TestPerSessionGaugesPublished(t *testing.T) {
	b := New(Config{ID: "gauges", retransmitInterval: 20 * time.Millisecond})
	defer b.Stop()
	c, err := b.LocalClient("gaugy", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Subscribe("/g/t", 4); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		r := b.Metrics().Report()
		return strings.Contains(r, "broker.session.gaugy.queue_drops") &&
			strings.Contains(r, "broker.session.gaugy.reliable_window")
	}, "per-session gauges never appeared in the registry report")
	if b.Metrics().Gauge("broker.session.gaugy.queue_drops").Value() != 0 {
		t.Fatal("queue_drops gauge non-zero without drops")
	}
	// Detach must drop the per-session gauges so churning client ids
	// cannot grow the registry without bound.
	c.Close()
	waitFor(t, 2*time.Second, func() bool {
		return !strings.Contains(b.Metrics().Report(), "broker.session.gaugy.")
	}, "per-session gauges survived detach")
}
