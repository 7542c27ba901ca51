// Black-box tests of the unified Stream/Publisher surface: delivery
// QoS (drop policies, drop observability), Recv context handling and
// iterator termination.
package globalmmcs_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs"
	"github.com/globalmmcs/globalmmcs/internal/testutil"
)

// chatFixture starts a node, creates a session alice and bob both join,
// and returns bob's session handle plus his room stream opened with the
// given options (messages sent through the returned session carry
// From=bob; the tests only assert bodies).
func chatFixture(t *testing.T, m *globalmmcs.Metrics, opts ...globalmmcs.StreamOption) (*globalmmcs.Session, *globalmmcs.ChatRoom) {
	t.Helper()
	ctx := context.Background()
	var srvOpts []globalmmcs.Option
	if m != nil {
		srvOpts = append(srvOpts, globalmmcs.WithMetrics(m))
	}
	srv := startNode(t, srvOpts...)
	alice := newClient(t, srv, "alice")
	bob := newClient(t, srv, "bob")
	session, err := alice.CreateSession(ctx, "qos")
	if err != nil {
		t.Fatal(err)
	}
	if err := session.Join(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	bobSession, err := bob.Join(ctx, session.ID(), "b")
	if err != nil {
		t.Fatal(err)
	}
	room, err := bobSession.Chat(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = room.Close() })
	return bobSession, room
}

func sendN(t *testing.T, session *globalmmcs.Session, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		if err := session.Send(context.Background(), fmt.Sprintf("m%d", i)); err != nil {
			t.Fatal(err)
		}
	}
}

func waitDrops[T any](t *testing.T, s *globalmmcs.Stream[T], want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Drops() < want {
		if time.Now().After(deadline) {
			t.Fatalf("drops = %d, want %d", s.Drops(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamDropOldest: with a 1-deep buffer and the default policy,
// flooding 5 messages keeps only the newest; 4 drops are counted.
func TestStreamDropOldest(t *testing.T) {
	session, room := chatFixture(t, nil, globalmmcs.WithBuffer(1))
	sendN(t, session, 5)
	waitDrops(t, room, 4)
	msg, err := room.Recv(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if msg.Body != "m5" {
		t.Fatalf("drop-oldest kept %q, want m5", msg.Body)
	}
	if room.Drops() != 4 {
		t.Fatalf("drops = %d, want 4", room.Drops())
	}
}

// TestStreamDropNewest: same flood, inverted policy — the first message
// is kept, later ones are discarded.
func TestStreamDropNewest(t *testing.T) {
	session, room := chatFixture(t, nil,
		globalmmcs.WithBuffer(1), globalmmcs.WithDropPolicy(globalmmcs.DropNewest))
	sendN(t, session, 5)
	waitDrops(t, room, 4)
	msg, err := room.Recv(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if msg.Body != "m1" {
		t.Fatalf("drop-newest kept %q, want m1", msg.Body)
	}
}

// TestStreamBlock: backpressure drops nothing — all 5 messages arrive
// in order through a 1-deep buffer once the consumer reads.
func TestStreamBlock(t *testing.T) {
	session, room := chatFixture(t, nil,
		globalmmcs.WithBuffer(1), globalmmcs.WithDropPolicy(globalmmcs.Block))
	sendN(t, session, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 1; i <= 5; i++ {
		msg, err := room.Recv(ctx)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if want := fmt.Sprintf("m%d", i); msg.Body != want {
			t.Fatalf("message %d = %q, want %q", i, msg.Body, want)
		}
	}
	if room.Drops() != 0 {
		t.Fatalf("block policy dropped %d events", room.Drops())
	}
}

// TestStreamLagNotifyAndGauge is the pumpSend silent-loss regression:
// full-buffer drops must surface as a per-stream queue_drops gauge in
// the node's registry — and the gauge must unregister on Close.
func TestStreamLagNotifyAndGauge(t *testing.T) {
	m := globalmmcs.NewMetrics()
	session, room := chatFixture(t, m, globalmmcs.WithBuffer(1))
	sendN(t, session, 5)
	waitDrops(t, room, 4)
	gauge := regexp.MustCompile(`gauge\s+stream\.bob\.chat\.\S+\.queue_drops\s+4\b`)
	if report := m.Report(); !gauge.MatchString(report) {
		t.Fatalf("queue_drops gauge missing from report:\n%s", report)
	}

	// A second stream with the same identity shares the gauge; closing
	// it must not unregister the gauge out from under the first.
	room2, err := session.Chat(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := room2.Close(); err != nil {
		t.Fatal(err)
	}
	if report := m.Report(); !gauge.MatchString(report) {
		t.Fatalf("gauge unregistered while a same-named stream is live:\n%s", report)
	}

	if err := room.Close(); err != nil {
		t.Fatal(err)
	}
	if report := m.Report(); strings.Contains(report, "queue_drops ") && gauge.MatchString(report) {
		t.Fatalf("gauge still registered after Close:\n%s", report)
	}
}

// TestStreamDropTotalsUnderOverload: the batched pump's drop accounting
// is exact under sustained overload — flooding through a 1-deep buffer
// in chunks, the cumulative Drops() equals the pre-refactor per-event
// total (everything sent minus the one buffered survivor), and the
// survivor is always the newest message.
func TestStreamDropTotalsUnderOverload(t *testing.T) {
	session, room := chatFixture(t, nil, globalmmcs.WithBuffer(1))

	const chunks, chunkSize = 3, 32
	sent := 0
	for c := 0; c < chunks; c++ {
		for i := 0; i < chunkSize; i++ {
			sent++
			if err := session.Send(context.Background(), fmt.Sprintf("m%d", sent)); err != nil {
				t.Fatal(err)
			}
		}
		// Every processed message beyond the single buffered one is a
		// counted displacement — the same total the per-event pump
		// produced.
		waitDrops(t, room, uint64(sent-1))
		if got := room.Drops(); got != uint64(sent-1) {
			t.Fatalf("after %d sent: drops = %d, want %d", sent, got, sent-1)
		}
	}
	msg, err := room.Recv(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("m%d", sent); msg.Body != want {
		t.Fatalf("survivor = %q, want %q", msg.Body, want)
	}
}

// TestStreamRecvContext: Recv honors cancellation and deadlines.
func TestStreamRecvContext(t *testing.T) {
	_, room := chatFixture(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := room.Recv(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("recv on idle stream = %v, want DeadlineExceeded", err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := room.Recv(ctx2)
		done <- err
	}()
	cancel2()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("recv = %v, want Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("recv did not unblock on cancel")
	}
}

// TestStreamIteratorTerminatesOnClose: ranging over All ends cleanly
// (no error yielded) when the stream closes mid-iteration, and a
// subsequent Recv reports ErrStreamClosed.
func TestStreamIteratorTerminatesOnClose(t *testing.T) {
	session, room := chatFixture(t, nil)
	if err := session.Send(context.Background(), "before close"); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(100 * time.Millisecond)
		_ = room.Close()
	}()
	var got []string
	var iterErr error
	for msg, err := range room.All(context.Background()) {
		if err != nil {
			iterErr = err
			break
		}
		got = append(got, msg.Body)
	}
	if iterErr != nil {
		t.Fatalf("iterator yielded error on close: %v", iterErr)
	}
	if len(got) != 1 || got[0] != "before close" {
		t.Fatalf("iterated = %v", got)
	}
	if _, err := room.Recv(context.Background()); !errors.Is(err, globalmmcs.ErrStreamClosed) {
		t.Fatalf("recv after close = %v, want ErrStreamClosed", err)
	}
}

// TestStreamIteratorYieldsContextError: a cancelled context ends All
// with exactly one error yield.
func TestStreamIteratorYieldsContextError(t *testing.T) {
	_, room := chatFixture(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	var errs []error
	for _, err := range room.All(ctx) {
		if err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) != 1 || !errors.Is(errs[0], context.DeadlineExceeded) {
		t.Fatalf("iterator errors = %v", errs)
	}
}

// TestPublisherBatchingFacade: a publisher over the in-process transport
// delivers every event, and Close succeeds on it — asserted end to end
// through a subscribed stream.
func TestPublisherBatchingFacade(t *testing.T) {
	ctx := context.Background()
	srv := startNode(t)
	alice := newClient(t, srv, "alice")
	session, err := alice.CreateSession(ctx, "batched")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := session.Subscribe(ctx, globalmmcs.Audio, globalmmcs.WithBuffer(64))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := session.Publisher(globalmmcs.Audio, globalmmcs.WithTTL(4))
	if err != nil {
		t.Fatal(err)
	}
	src := globalmmcs.NewAudioSource(globalmmcs.AudioConfig{})
	for i := 0; i < 10; i++ {
		raw, err := src.NextPacket()
		if err != nil {
			t.Fatal(err)
		}
		if err := pub.Publish(raw); err != nil {
			t.Fatal(err)
		}
	}
	recvCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		if _, err := sub.Recv(recvCtx); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOutOfRangeOptionsRejected: an option value outside its range is
// refused with ErrInvalidRequest before anything is subscribed or
// opened, instead of silently becoming a default — a TTL outside
// 1..255 at Session.Publisher, an undefined DropPolicy at every
// subscribe-shaped entry point — and the refused call leaks nothing.
func TestOutOfRangeOptionsRejected(t *testing.T) {
	ctx := context.Background()
	srv := startNode(t)
	alice := newClient(t, srv, "alice")
	session, err := alice.CreateSession(ctx, "ranges")
	if err != nil {
		t.Fatal(err)
	}
	undefined := globalmmcs.WithDropPolicy(globalmmcs.DropPolicy(9))
	for name, open := range map[string]func() (io.Closer, error){
		"Publisher TTL 0":   func() (io.Closer, error) { return session.Publisher(globalmmcs.Audio, globalmmcs.WithTTL(0)) },
		"Publisher TTL 256": func() (io.Closer, error) { return session.Publisher(globalmmcs.Audio, globalmmcs.WithTTL(256)) },
		"Chat":              func() (io.Closer, error) { return session.Chat(ctx, undefined) },
		"Subscribe":         func() (io.Closer, error) { return session.Subscribe(ctx, globalmmcs.Audio, undefined) },
		"Events":            func() (io.Closer, error) { return session.Events(ctx, undefined) },
		"WatchPresence":     func() (io.Closer, error) { return alice.WatchPresence(ctx, "ranges", undefined) },
	} {
		t.Run(name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			c, err := open()
			if err == nil {
				c.Close()
			}
			if !errors.Is(err, globalmmcs.ErrInvalidRequest) {
				t.Fatalf("err = %v, want ErrInvalidRequest", err)
			}
		})
	}
	// The bounds themselves are accepted.
	for _, hops := range []int{1, 255} {
		pub, err := session.Publisher(globalmmcs.Audio, globalmmcs.WithTTL(hops))
		if err != nil {
			t.Fatalf("WithTTL(%d): %v", hops, err)
		}
		pub.Close()
	}
}
