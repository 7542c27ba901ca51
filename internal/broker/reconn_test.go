// Race-tested plane: resilience. Under go test -race these tests drive
// supervised reconnect with scripted conn kills mid reliable burst, a
// broker crash-restart under a replay subscriber (exactly-once both
// ways), graceful drain handover and the goroutine-leak fences on every
// churn path. resume_test.go covers the resume handshake's edges (window
// salvage at original rseqs, linger expiry, stale tokens, the
// double-resume takeover, parked-session bounds), and
// internal/transport's fault_test.go the deterministic fault-schedule
// conns they are built on. Redial supervisors, read loops and parked
// sessions all race for the same session state during a cut.

package broker

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// brokerSeam is the Dial seam for resilience tests: it maps URLs to
// in-process brokers and deals each dial a FaultConn, so tests kill
// links on cue and take brokers "down" by unmapping them.
type brokerSeam struct {
	mu      sync.Mutex
	brokers map[string]*Broker
	// schedules[i] is the fault schedule for the i-th dial (missing =
	// clean conn).
	schedules [][]transport.Fault
	// profile shapes the broker→client direction of every dealt conn
	// (e.g. SendCost paces delivery so kills land mid-burst).
	profile transport.LinkProfile
	dials   int
	conns   []*transport.FaultConn
}

func newSeam() *brokerSeam {
	return &brokerSeam{brokers: make(map[string]*Broker)}
}

func (s *brokerSeam) set(url string, b *Broker) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b == nil {
		delete(s.brokers, url)
		return
	}
	s.brokers[url] = b
}

func (s *brokerSeam) dial(url string) (transport.Conn, error) {
	s.mu.Lock()
	b := s.brokers[url]
	var sched []transport.Fault
	if s.dials < len(s.schedules) {
		sched = s.schedules[s.dials]
	}
	s.dials++
	s.mu.Unlock()
	if b == nil {
		return nil, errors.New("seam: broker down")
	}
	client, server := transport.Pipe(b.ID(), "seam-client")
	go b.AcceptConn(transport.Shape(server, s.profile))
	fc := transport.InjectFaults(client, sched...)
	s.mu.Lock()
	s.conns = append(s.conns, fc)
	s.mu.Unlock()
	return fc, nil
}

// killCurrent cuts the most recently dealt conn.
func (s *brokerSeam) killCurrent() {
	s.mu.Lock()
	fc := s.conns[len(s.conns)-1]
	s.mu.Unlock()
	fc.Kill()
}

func (s *brokerSeam) dialCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dials
}

func resilientClient(t *testing.T, seam *brokerSeam, id string, urls ...string) *Client {
	t.Helper()
	c, err := DialResilient(ResilientConfig{
		URLs:      urls,
		ID:        id,
		RedialMin: 10 * time.Millisecond,
		RedialMax: 100 * time.Millisecond,
		Dial:      seam.dial,
	})
	if err != nil {
		t.Fatalf("DialResilient: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func waitState(t *testing.T, c *Client, want ConnState) {
	t.Helper()
	waitCondition(t, 10*time.Second, fmt.Sprintf("client state %v", want), func() bool {
		return c.ConnState() == want
	})
}

// TestResilientResumeTransparent: a conn kill between two reliable
// bursts is invisible to the subscriber — the subscription ring stays
// open, the resumed session redelivers nothing twice and loses nothing.
func TestResilientResumeTransparent(t *testing.T) {
	b := newTestBrokerCfg(t, Config{ID: "rt", SessionLinger: 5 * time.Second})
	seam := newSeam()
	seam.set("u1", b)
	c := resilientClient(t, seam, "rt-sub", "u1")
	sub, err := c.Subscribe("/rt/t", 256)
	if err != nil {
		t.Fatal(err)
	}
	pub := localClient(t, b, "rt-pub")

	recv := func(want byte) {
		t.Helper()
		e := recvOne(t, sub, 10*time.Second)
		if e.Payload[0] != want {
			t.Fatalf("payload %d, want %d", e.Payload[0], want)
		}
	}
	for i := range 5 {
		if err := pub.PublishReliable("/rt/t", event.KindControl, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 5 {
		recv(byte(i))
	}

	seam.killCurrent()
	waitCondition(t, 10*time.Second, "redialed", func() bool {
		return seam.dialCount() >= 2 && c.ConnState() == StateConnected
	})
	for i := 5; i < 10; i++ {
		if err := pub.PublishReliable("/rt/t", event.KindControl, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 5; i < 10; i++ {
		recv(byte(i))
	}
	expectNone(t, sub, 200*time.Millisecond) // no duplicate redelivery
}

// TestChaosConnKillMidReliableBurst: 300 reliable events are in flight
// when the conn is killed twice mid-burst. Across both resumes every
// event arrives exactly once — the salvaged window replays under
// original rseqs and the client's cumulative dedup absorbs the overlap.
func TestChaosConnKillMidReliableBurst(t *testing.T) {
	b := newTestBrokerCfg(t, Config{
		ID:                 "chaos",
		SessionLinger:      10 * time.Second,
		retransmitInterval: 50 * time.Millisecond,
	})
	seam := newSeam()
	// Pace broker→client delivery so the 300-event burst takes ~300ms
	// to drain: the kills below genuinely land mid-burst, with most of
	// the window unacked.
	seam.profile = transport.LinkProfile{SendCost: time.Millisecond}
	seam.set("u1", b)
	c := resilientClient(t, seam, "chaos-sub", "u1")
	sub, err := c.Subscribe("/chaos/t", 1024)
	if err != nil {
		t.Fatal(err)
	}
	pub := localClient(t, b, "chaos-pub")

	const n = 300
	for i := range n {
		if err := pub.PublishReliable("/chaos/t", event.KindControl, counterPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The whole burst is now in the session's reliable window. Kill the
	// conn twice while it drains; each kill parks the session mid-burst.
	seen := make(map[string]int, n)
	total := 0
	deadline := time.Now().Add(30 * time.Second)
	for len(seen) < n {
		e, err := recvWithin(sub, time.Until(deadline))
		if err != nil {
			t.Fatalf("received %d/%d distinct events (total %d, dials %d, parked %d, sessions %d, state %v)",
				len(seen), n, total, seam.dialCount(), b.parkedCount(), b.SessionCount(), c.ConnState())
		}
		seen[string(e.Payload)]++
		total++
		if total == 100 || total == 200 {
			seam.killCurrent()
		}
	}
	if total != n {
		t.Fatalf("received %d events for %d published: duplicates crossed the resume", total, n)
	}
	for i := range n {
		if seen[string(counterPayload(i))] != 1 {
			t.Fatalf("event %d delivered %d times, want exactly once", i, seen[string(counterPayload(i))])
		}
	}
	// At least one kill landed on a live conn and forced a resume (the
	// second may hit a conn that was already dead — that's chaos).
	if seam.dialCount() < 2 {
		t.Fatalf("dials = %d, want a resume redial", seam.dialCount())
	}
}

// TestChaosBrokerCrashRestartCatchUp: the broker process dies and a new
// one starts over the same durable topic log. The resume token is
// worthless (the park died with the process), so the client falls back
// to the log: its replay stream re-anchors past the last delivered
// record and catch-up is still exactly-once.
func TestChaosBrokerCrashRestartCatchUp(t *testing.T) {
	dir := t.TempDir()
	mk := func(id string) *Broker {
		return New(Config{
			ID:             id,
			SessionLinger:  10 * time.Second,
			RecordPatterns: []string{"/cr/#"},
			RecordDir:      dir,
		})
	}
	b1 := mk("cr-b1")
	seam := newSeam()
	seam.set("u1", b1)
	c := resilientClient(t, seam, "cr-sub", "u1")
	sub, err := c.SubscribeReplay(context.Background(), "/cr/#", 0, 1024)
	if err != nil {
		t.Fatal(err)
	}

	const half = 50
	pub1 := localClient(t, b1, "cr-pub1")
	for i := range half {
		if err := pub1.PublishReliable("/cr/a", event.KindControl, counterPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[string]int, 2*half)
	collect := func(want int) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for len(seen) < want {
			e, err := recvWithin(sub, time.Until(deadline))
			if err != nil {
				t.Fatalf("received %d/%d distinct events", len(seen), want)
			}
			seen[string(e.Payload)]++
		}
	}
	collect(half)

	// Crash: no drain, no goaway — the park dies with the broker.
	seam.set("u1", nil)
	b1.Stop()
	waitState(t, c, StateReconnecting)

	b2 := mk("cr-b2")
	t.Cleanup(b2.Stop)
	waitRecorded(t, b2, "/cr/#", half) // restarted log resumes its seq
	pub2 := localClient(t, b2, "cr-pub2")
	for i := half; i < 2*half; i++ {
		if err := pub2.PublishReliable("/cr/a", event.KindControl, counterPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	seam.set("u1", b2)
	collect(2 * half)
	for i := range 2 * half {
		if got := seen[string(counterPayload(i))]; got != 1 {
			t.Fatalf("event %d delivered %d times, want exactly once across restart", i, got)
		}
	}
	waitState(t, c, StateConnected)
}

// TestDrainHandsClientsOver: Drain stops accepting, GOAWAYs attached
// clients and returns once their reliable windows flush; a resilient
// client rotates to the next broker and keeps its subscription working.
func TestDrainHandsClientsOver(t *testing.T) {
	b1 := newTestBrokerCfg(t, Config{ID: "dr-b1", SessionLinger: 5 * time.Second})
	b2 := newTestBrokerCfg(t, Config{ID: "dr-b2", SessionLinger: 5 * time.Second})
	seam := newSeam()
	seam.set("u1", b1)
	seam.set("u2", b2)
	c := resilientClient(t, seam, "dr-sub", "u1", "u2")
	sub, err := c.Subscribe("/dr/t", 64)
	if err != nil {
		t.Fatal(err)
	}
	pub1 := localClient(t, b1, "dr-pub1")
	if err := pub1.PublishReliable("/dr/t", event.KindControl, []byte("before")); err != nil {
		t.Fatal(err)
	}
	if e := recvOne(t, sub, 5*time.Second); string(e.Payload) != "before" {
		t.Fatalf("got %q", e.Payload)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b1.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Draining brokers refuse new attachments.
	if _, err := b1.LocalClient("late", transport.LinkProfile{}); err == nil {
		t.Fatal("LocalClient on draining broker succeeded, want refusal")
	}
	// The GOAWAY rotated the client onto b2 with its subscription alive.
	waitCondition(t, 10*time.Second, "client lands on b2", func() bool {
		return b2.SessionCount() == 1 && len(b2.matchSessions("/dr/t")) == 1
	})
	waitState(t, c, StateConnected)
	pub2 := localClient(t, b2, "dr-pub2")
	if err := pub2.PublishReliable("/dr/t", event.KindControl, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if e := recvOne(t, sub, 5*time.Second); string(e.Payload) != "after" {
		t.Fatalf("got %q", e.Payload)
	}
}

// TestDrainTimeout: a client that never acks keeps its window dirty, so
// a bounded Drain gives up with the context's error instead of hanging.
func TestDrainTimeout(t *testing.T) {
	b := newTestBrokerCfg(t, Config{ID: "dt", retransmitInterval: time.Minute})
	// Raw conn that subscribes and goes silent: reliable events pile up
	// unacked.
	rc := rawAttach(t, b, helloEvent("dt-silent"))
	if err := rc.conn.Send(subEvent("/dt/t")); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			if _, err := rc.conn.Recv(); err != nil {
				return
			}
		}
	}()
	waitCondition(t, 5*time.Second, "subscribed", func() bool {
		return len(b.matchSessions("/dt/t")) > 0
	})
	pub := localClient(t, b, "dt-pub")
	if err := pub.PublishReliable("/dt/t", event.KindControl, []byte("stuck")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := b.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with dirty window: %v, want DeadlineExceeded", err)
	}
	rc.conn.Close()
}

// TestConnLostFailFast: once the outage buffer is full, operations
// against a down link fail fast with ErrConnLost — and work again once
// the link is back.
func TestConnLostFailFast(t *testing.T) {
	b := newTestBrokerCfg(t, Config{ID: "cl", SessionLinger: 5 * time.Second})
	seam := newSeam()
	seam.set("u1", b)
	c := resilientClient(t, seam, "cl-c", "u1")

	seam.set("u1", nil) // redials fail until the broker is "back"
	seam.killCurrent()
	waitState(t, c, StateReconnecting)
	for i := range publishBuffer {
		if err := c.Publish("/cl/t", event.KindData, nil); err != nil {
			t.Fatalf("publish %d within bound: %v", i, err)
		}
	}
	if err := c.Publish("/cl/t", event.KindData, []byte("x")); !errors.Is(err, ErrConnLost) {
		t.Fatalf("Publish during outage: %v, want ErrConnLost", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := c.SubscribeContext(ctx, "/cl/t", 8); !errors.Is(err, ErrConnLost) {
		t.Fatalf("Subscribe during outage: %v, want ErrConnLost", err)
	}

	seam.set("u1", b)
	waitState(t, c, StateConnected)
	if err := c.Publish("/cl/t", event.KindData, []byte("y")); err != nil {
		t.Fatalf("Publish after recovery: %v", err)
	}
}

// TestOutagePublishBuffering: best-effort publishes during an outage
// buffer client-side (up to the bound) and flush in order after the
// reconnect.
func TestOutagePublishBuffering(t *testing.T) {
	b := newTestBrokerCfg(t, Config{ID: "ob", SessionLinger: 5 * time.Second})
	seam := newSeam()
	seam.set("u1", b)

	watcher := localClient(t, b, "ob-watch")
	wsub, err := watcher.Subscribe("/ob/t", 64)
	if err != nil {
		t.Fatal(err)
	}
	c := resilientClient(t, seam, "ob-pub", "u1")

	seam.set("u1", nil) // hold the outage open while we publish
	seam.killCurrent()
	waitState(t, c, StateReconnecting)
	const n = 10
	for i := range n {
		if err := c.Publish("/ob/t", event.KindData, []byte{byte(i)}); err != nil {
			t.Fatalf("buffered publish %d: %v", i, err)
		}
	}
	seam.set("u1", b)
	waitState(t, c, StateConnected)
	for i := range n {
		e := recvOne(t, wsub, 5*time.Second)
		if e.Payload[0] != byte(i) {
			t.Fatalf("flushed publish %d: payload %d, want %d (order lost)", i, e.Payload[0], i)
		}
	}
}

// TestOutageBufferBound: the outage buffer is bounded; overflow fails
// fast instead of growing without limit, and what the bound admitted is
// flushed in order after the reconnect.
func TestOutageBufferBound(t *testing.T) {
	b := newTestBrokerCfg(t, Config{ID: "obb", SessionLinger: 5 * time.Second})
	seam := newSeam()
	seam.set("u1", b)
	watcher := localClient(t, b, "obb-watch")
	wsub, err := watcher.Subscribe("/obb/t", 2*publishBuffer)
	if err != nil {
		t.Fatal(err)
	}
	c := resilientClient(t, seam, "obb-c", "u1")
	seam.set("u1", nil)
	seam.killCurrent()
	waitState(t, c, StateReconnecting)
	for i := range publishBuffer {
		if err := c.Publish("/obb/t", event.KindData, []byte{byte(i)}); err != nil {
			t.Fatalf("publish %d within bound: %v", i, err)
		}
	}
	if err := c.Publish("/obb/t", event.KindData, []byte("over")); !errors.Is(err, ErrConnLost) {
		t.Fatalf("publish past bound: %v, want ErrConnLost", err)
	}
	seam.set("u1", b)
	waitState(t, c, StateConnected)
	for i := range publishBuffer {
		if e := recvOne(t, wsub, 5*time.Second); len(e.Payload) != 1 || e.Payload[0] != byte(i) {
			t.Fatalf("flushed publish %d: payload %v", i, e.Payload)
		}
	}
}
