// Race-tested plane: multi-core egress. Under go test -race these tests
// check shared-pool and private-pool single-lock/single-wakeup service,
// reliable flush on close through the pool's shutdown drain,
// clogged-consumer parking with sibling isolation, and session churn
// against the scheduled-flag handoff. delivery_test.go adds four
// concurrent publisher sweeps with delivery conservation, and
// parking_test.go the client-side subscription parking. One pool goroutine per GOMAXPROCS
// serves many sessions, so the handoff flags are the shared state.

package broker

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/testutil"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// TestWriterPoolSingleLockSingleWakeupPerBurst is the batching contract
// of the writer pools: a burst fanned to N sessions costs each session
// one producer-side queue lock and deposits at most one consumer wakeup
// — whether the sessions share pools or each has a private one (the
// writer a SendBlocker conn gets).
func TestWriterPoolSingleLockSingleWakeupPerBurst(t *testing.T) {
	const subscribers = 8
	const burst = 16

	run := func(t *testing.T, pooled bool) {
		b := New(Config{ID: "wp-wakeup"})
		defer b.Stop()
		if len(b.pools) == 0 {
			t.Fatal("expected writer pools under the default config")
		}

		sessions := make([]*session, 0, subscribers)
		conns := make([]*captureConn, 0, subscribers)
		for i := 0; i < subscribers; i++ {
			conn := newCaptureConn()
			s := newSession(b, conn, fmt.Sprintf("wp-sub-%d", i), false)
			if pooled {
				s.bindPool(b.pools[i%len(b.pools)])
			} else {
				runPrivatePool(t, s)
			}
			if err := b.subs.Add("/wp/t", s); err != nil {
				t.Fatal(err)
			}
			sessions = append(sessions, s)
			conns = append(conns, conn)
		}

		drained := func() bool {
			for _, s := range sessions {
				if s.queue.depth() != 0 {
					return false
				}
			}
			return true
		}

		events := make([]*event.Event, burst)
		for i := range events {
			events[i] = burstEvent(uint64(i+1), "/wp/t")
		}
		sweep := b.newRouteSweep()
		sweep.routeBatch(events, nil)

		// Writers drain concurrently; wait for every queue to empty so the
		// wakeup count below is the burst's final tally.
		waitFor(t, 5*time.Second, drained, "writers never drained the burst")
		for i, s := range sessions {
			if locks := s.queue.pushLockCount(); locks != 1 {
				t.Fatalf("session %d: %d push locks for one burst, want 1", i, locks)
			}
			if w := s.queue.wakeupCount(); w != 1 {
				t.Fatalf("session %d: %d wakeups for one burst, want 1", i, w)
			}
		}

		// A second burst costs exactly one more lock and one more wakeup
		// per session.
		sweep.routeBatch(events, nil)
		waitFor(t, 5*time.Second, drained, "writers never drained the second burst")
		// Delivery completeness: everything staged went out the conns.
		waitFor(t, 5*time.Second, func() bool {
			for _, c := range conns {
				if len(c.allFlushed()) != 2*burst {
					return false
				}
			}
			return true
		}, "writers never flushed both bursts")
		for i, s := range sessions {
			if locks := s.queue.pushLockCount(); locks != 2 {
				t.Fatalf("session %d: %d push locks after two bursts, want 2", i, locks)
			}
			if w := s.queue.wakeupCount(); w != 2 {
				t.Fatalf("session %d: %d wakeups after two bursts, want 2", i, w)
			}
		}
	}

	t.Run("writer-pool", func(t *testing.T) { run(t, true) })
	t.Run("per-session-pool", func(t *testing.T) { run(t, false) })
}

// TestWriterPoolReliableFlushOnClose: traffic already queued when a
// session closes — including reliable items — still reaches the conn
// before Broker.Stop returns: the pools' shutdown drain services every
// closed queue through popClosed and flushes its sink.
func TestWriterPoolReliableFlushOnClose(t *testing.T) {
	b := New(Config{ID: "wp-close", FlushInterval: 50 * time.Millisecond})
	if len(b.pools) == 0 {
		t.Fatal("expected writer pools under the default config")
	}

	const sessions = 4
	const perSession = 8
	conns := make([]*captureConn, 0, sessions)
	var arena event.FrameArena
	for i := 0; i < sessions; i++ {
		conn := newCaptureConn()
		s := newSession(b, conn, fmt.Sprintf("wp-close-%d", i), false)
		s.bindPool(b.pools[i%len(b.pools)])
		conns = append(conns, conn)
		for j := 0; j < perSession; j++ {
			if j%2 == 0 {
				s.sendReliable(burstEvent(uint64(j+1), "/wp/close"))
			} else {
				e := burstEvent(uint64(j+1), "/wp/close")
				f := arena.NewFrame(e)
				s.queue.pushBestEffort(e, &f)
			}
		}
		// Close the queue (as session close does first) while items are
		// still in flight toward the pool.
		s.queue.close()
	}

	b.Stop()

	for i, conn := range conns {
		got := len(conn.allFlushed()) + func() int {
			conn.mu.Lock()
			defer conn.mu.Unlock()
			return len(conn.sends)
		}()
		if got != perSession {
			t.Fatalf("session %d: %d events reached the conn across pool shutdown, want %d", i, got, perSession)
		}
	}
}

// TestWriterPoolCloggedSessionDoesNotStallSiblings: a session whose
// in-process consumer stops reading fills its pipe; the pool must park
// it on the non-blocking retry path and keep draining its siblings —
// the head-of-line hazard that separates a shared pool goroutine from
// the legacy writer-per-session plane. Once the consumer resumes, the
// parked session's leftovers must still arrive.
func TestWriterPoolCloggedSessionDoesNotStallSiblings(t *testing.T) {
	// Deep queue: the flood must survive to the pool intact (not be shed
	// at the best-effort lane) so the drain genuinely outruns the pipe.
	b := New(Config{ID: "wp-clog", QueueDepth: 8192})
	defer b.Stop()
	if len(b.pools) == 0 {
		t.Fatal("expected writer pools under the default config")
	}

	stuckBroker, stuckClient := transport.Pipe("broker", "stuck-client")
	liveBroker, liveClient := transport.Pipe("broker", "live-client")
	defer stuckClient.Close()
	defer liveClient.Close()
	defer stuckBroker.Close()
	defer liveBroker.Close()

	stuck := newSession(b, stuckBroker, "wp-clog-stuck", false)
	live := newSession(b, liveBroker, "wp-clog-live", false)
	// Same pool on purpose: the clogged session and its sibling share
	// one goroutine.
	stuck.bindPool(b.pools[0])
	live.bindPool(b.pools[0])

	// Flood the stuck session well past its pipe depth while its
	// consumer reads nothing: the pool must clog-park it, not block.
	const flood = 4096
	for i := 0; i < flood; i++ {
		stuck.queue.pushBestEffort(burstEvent(uint64(i+1), "/clog/a"), nil)
	}

	// The sibling's traffic must flow regardless.
	const sibling = 100
	for i := 0; i < sibling; i++ {
		live.queue.pushBestEffort(burstEvent(uint64(i+1), "/clog/b"), nil)
	}
	var liveGot atomic.Uint64
	go func() {
		for {
			if _, err := liveClient.Recv(); err != nil {
				return
			}
			liveGot.Add(1)
		}
	}()
	waitFor(t, 5*time.Second, func() bool { return liveGot.Load() == sibling },
		"sibling session starved behind a clogged pool mate")

	// The pool must have hit the non-blocking clog-park path (rather than
	// blocking on the full pipe) for the sibling delivery above to mean
	// anything.
	waitFor(t, 5*time.Second, func() bool { return b.pools[0].clogs.Load() > 0 },
		"pool never clog-parked the stalled session")

	// Resume the stuck consumer: the parked sink's retries and the
	// re-woken queue drain must deliver every flooded event, not just the
	// initial pipe fill held at park time.
	var stuckGot atomic.Uint64
	go func() {
		for {
			if _, err := stuckClient.Recv(); err != nil {
				return
			}
			stuckGot.Add(1)
		}
	}()
	waitFor(t, 5*time.Second, func() bool { return stuckGot.Load() == flood },
		"clogged session never delivered its backlog after the consumer caught up")
}

// TestWriterPoolSessionChurn drives sessions joining and leaving while
// the pools are actively draining fan-out traffic — the lifecycle race
// the scheduled-flag handoff must survive (run under -race in CI).
func TestWriterPoolSessionChurn(t *testing.T) {
	b := New(Config{ID: "wp-churn", QueueDepth: 4096})
	defer b.Stop()

	// A stable subscriber keeps the topic routed throughout.
	stable, err := b.LocalClient("wp-churn-stable", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	defer stable.Close()
	sub, err := stable.Subscribe("/churn/#", 4096)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]*event.Event, 0, 256)
		for {
			var ok bool
			buf, ok = sub.RecvBatch(buf[:0], 256)
			clear(buf)
			if !ok {
				return
			}
		}
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Publisher flood through the batching client path (bursts through
	// the sweep into pool-drained queues).
	for p := 0; p < 2; p++ {
		c, err := b.LocalClient(fmt.Sprintf("wp-churn-pub-%d", p), transport.LinkProfile{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		pub := c.Publisher(PublisherConfig{Batching: true})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer pub.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = pub.Publish(event.New("/churn/t", event.KindRTP, []byte("churn")))
				if i%64 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}

	// Churners: join, subscribe, receive a little, leave.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				c, err := b.LocalClient(fmt.Sprintf("wp-churn-%d-%d", g, round), transport.LinkProfile{})
				if err != nil {
					return // broker stopping
				}
				s, err := c.Subscribe("/churn/#", 256)
				if err == nil {
					buf := make([]*event.Event, 0, 64)
					deadline := time.Now().Add(5 * time.Millisecond)
					for time.Now().Before(deadline) {
						var ok bool
						buf, ok = s.tryRecvBatch(buf[:0], 64)
						clear(buf)
						if !ok {
							break
						}
						time.Sleep(100 * time.Microsecond)
					}
				}
				c.Close()
			}
		}(g)
	}

	time.Sleep(800 * time.Millisecond)
	close(stop)
	wg.Wait()

	if routed := b.Metrics().Counter("broker.events_routed").Value(); routed == 0 {
		t.Fatal("no events routed during churn")
	}
}

// queuedEnvelopes pumps k history envelopes (~64 KiB frames) on a
// replay rig and pops them off its send queue, so a test can queue the
// same reliable frames for one writer service as often as it likes.
func queuedEnvelopes(tb testing.TB, k int) (*session, []outItem) {
	tb.Helper()
	s, sr := replayRig(tb, 4_000, 1200)
	for range k {
		pumpOne(tb, s, sr)
	}
	items, st := s.queue.popBatch(nil, k)
	if st != popOK || len(items) != k {
		tb.Fatalf("popped %d of %d queued envelopes (state %v)", len(items), k, st)
	}
	return s, items
}

// TestWriterPoolFlushesReliableRunOnce: a service that drains k reliable
// frames writes them in as few sends as the batch bound allows, not one
// send per frame, and leaves the flushed mark at the highest rseq.
func TestWriterPoolFlushesReliableRunOnce(t *testing.T) {
	const k = 16
	s, items := queuedEnvelopes(t, k)
	wp, fc := rigWriter(s)
	for _, it := range items {
		s.queue.pushItem(it)
	}
	wp.service(s, nil)
	if fc.frames != k {
		t.Fatalf("service wrote %d frames, want %d", fc.frames, k)
	}
	want := (fc.bytes + transport.DefaultMaxBatchBytes - 1) / transport.DefaultMaxBatchBytes
	if fc.sends != want {
		t.Fatalf("%d frames (%d bytes) took %d writes, want %d", k, fc.bytes, fc.sends, want)
	}
	if got := s.relFlushed.Load(); got != k {
		t.Fatalf("flushed mark at rseq %d after the service, want %d", got, k)
	}
}

// TestWriterPoolFailedFlushKeepsMark: when the flush that ends a batch
// fails, the flushed mark stays where the last good flush left it, so
// an ack for the failed batch's envelopes recycles none of their
// buffers.
func TestWriterPoolFailedFlushKeepsMark(t *testing.T) {
	s, sr := replayRig(t, 2_000, 1200)
	wp, fc := rigWriter(s)
	pumpOne(t, s, sr) // rseq 1
	wp.service(s, nil)
	if s.relFlushed.Load() != 1 {
		t.Fatalf("flushed mark at rseq %d, want 1", s.relFlushed.Load())
	}
	fc.err = errors.New("link down")
	pumpOne(t, s, sr) // rseq 2
	pumpOne(t, s, sr) // rseq 3
	wp.service(s, nil)
	if !s.writerDone {
		t.Fatal("a failed flush left the writer running")
	}
	if got := s.relFlushed.Load(); got != 1 {
		t.Fatalf("a failed flush moved the flushed mark to rseq %d, want 1", got)
	}
	s.handleAck(3)
	if n := s.b.ctr.recycled.Value(); n != 1 {
		t.Fatalf("acking rseqs 1..3 recycled %d buffers, want 1 (rseq 1, the only one flushed)", n)
	}
}

// serviceReliableAllocs is what one writer service over 16 queued
// reliable envelopes may allocate: nothing, the count the per-frame
// flush measured. The batcher's frame list and the pool's drain buffer
// are reused across services.
const serviceReliableAllocs = 0

// TestWriterPoolServiceReliableAllocs gates BenchmarkWriterPoolServiceReliable's
// allocations, so the count can only go down.
func TestWriterPoolServiceReliableAllocs(t *testing.T) {
	s, items := queuedEnvelopes(t, 16)
	wp, _ := rigWriter(s)
	step := func() {
		for _, it := range items {
			s.queue.pushItem(it)
		}
		wp.service(s, nil)
	}
	step()
	testutil.SkipAllocGateUnderRace(t)
	if got := testing.AllocsPerRun(100, step); got > serviceReliableAllocs {
		t.Fatalf("one service over 16 reliable envelopes allocated %.0f times, want <= %d", got, serviceReliableAllocs)
	}
}

// BenchmarkWriterPoolServiceReliable is the writer pool's rung: one
// service over 16 queued reliable ~64 KiB frames (a replay pump's
// 1 MiB window) through the session's frame sink on a counting
// FrameConn. sends/service is how many writes the service issued.
func BenchmarkWriterPoolServiceReliable(b *testing.B) {
	s, items := queuedEnvelopes(b, 16)
	wp, fc := rigWriter(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, it := range items {
			s.queue.pushItem(it)
		}
		wp.service(s, nil)
	}
	b.ReportMetric(float64(fc.sends)/float64(b.N), "sends/service")
}
