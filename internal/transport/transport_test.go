package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
)

func testEvent(id uint64) *event.Event {
	return &event.Event{
		ID:        id,
		Source:    "t",
		Topic:     "/test/topic",
		Kind:      event.KindData,
		TTL:       4,
		Timestamp: time.Now().UnixNano(),
		Payload:   []byte("hello"),
	}
}

// exerciseConnPair sends events both ways across a connected pair and
// verifies arrival, then closes and verifies ErrClosed.
func exerciseConnPair(t *testing.T, a, b Conn) {
	t.Helper()
	const n = 50
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range n {
			if err := a.Send(testEvent(uint64(i))); err != nil {
				t.Errorf("a.Send(%d): %v", i, err)
				return
			}
		}
	}()
	for i := range n {
		e, err := b.Recv()
		if err != nil {
			t.Fatalf("b.Recv(%d): %v", i, err)
		}
		if e.Topic != "/test/topic" {
			t.Fatalf("recv topic = %q", e.Topic)
		}
	}
	wg.Wait()

	// Reverse direction.
	if err := b.Send(testEvent(99)); err != nil {
		t.Fatalf("b.Send: %v", err)
	}
	e, err := a.Recv()
	if err != nil || e.ID != 99 {
		t.Fatalf("a.Recv = %v, %v", e, err)
	}

	if err := a.Close(); err != nil {
		t.Fatalf("a.Close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestMemPipe(t *testing.T) {
	a, b := Pipe("b-side", "a-side")
	exerciseConnPair(t, a, b)
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after peer close = %v, want ErrClosed", err)
	}
	if err := b.Send(testEvent(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after close = %v, want ErrClosed", err)
	}
}

func TestMemPipeDrainAfterClose(t *testing.T) {
	a, b := Pipe("x", "y")
	if err := a.Send(testEvent(1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if e, err := b.Recv(); err != nil || e.ID != 1 {
		t.Fatalf("buffered event lost on close: %v, %v", e, err)
	}
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("expected ErrClosed after drain, got %v", err)
	}
}

func TestMemListenerDialAccept(t *testing.T) {
	n := &Network{}
	l, err := n.Listen("mem://hub")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Addr() != "mem://hub" {
		t.Fatalf("Addr = %q", l.Addr())
	}

	type result struct {
		c   Conn
		err error
	}
	acceptCh := make(chan result, 1)
	go func() {
		c, err := l.Accept()
		acceptCh <- result{c, err}
	}()
	client, err := n.Dial("mem://hub")
	if err != nil {
		t.Fatal(err)
	}
	r := <-acceptCh
	if r.err != nil {
		t.Fatal(r.err)
	}
	exerciseConnPair(t, client, r.c)
}

func TestMemDialUnknown(t *testing.T) {
	n := &Network{}
	if _, err := n.Dial("mem://nowhere"); err == nil {
		t.Fatal("dial to unknown mem address succeeded")
	}
}

func TestMemListenDuplicate(t *testing.T) {
	n := &Network{}
	l, err := n.Listen("mem://dup")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("mem://dup"); err == nil {
		t.Fatal("duplicate listen succeeded")
	}
	l.Close()
	// Address is free again after close.
	l2, err := n.Listen("mem://dup")
	if err != nil {
		t.Fatalf("listen after close: %v", err)
	}
	l2.Close()
}

func TestMemListenerCloseUnblocksAccept(t *testing.T) {
	n := &Network{}
	l, err := n.Listen("mem://c")
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	l.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Accept after close = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Accept did not unblock on Close")
	}
}

func TestTCPConn(t *testing.T) {
	l, err := Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	acceptCh := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		acceptCh <- c
	}()
	client, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	server := <-acceptCh
	exerciseConnPair(t, client, server)
	if _, err := server.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after peer close = %v, want ErrClosed", err)
	}
}

func TestTCPLargeEvent(t *testing.T) {
	l, err := Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	acceptCh := make(chan Conn, 1)
	go func() {
		c, _ := l.Accept()
		acceptCh <- c
	}()
	client, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-acceptCh
	defer server.Close()

	e := testEvent(1)
	e.Payload = make([]byte, 512<<10) // 512 KiB, within 1 MiB limit
	for i := range e.Payload {
		e.Payload[i] = byte(i)
	}
	if err := client.Send(e); err != nil {
		t.Fatal(err)
	}
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) != len(e.Payload) {
		t.Fatalf("payload len = %d, want %d", len(got.Payload), len(e.Payload))
	}
}

func TestUDPConn(t *testing.T) {
	l, err := Listen("udp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	client, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// UDP server conns materialize on first datagram.
	if err := client.Send(testEvent(1)); err != nil {
		t.Fatal(err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	e, err := server.Recv()
	if err != nil || e.ID != 1 {
		t.Fatalf("server.Recv = %v, %v", e, err)
	}
	// Reply path.
	if err := server.Send(testEvent(2)); err != nil {
		t.Fatal(err)
	}
	e, err = client.Recv()
	if err != nil || e.ID != 2 {
		t.Fatalf("client.Recv = %v, %v", e, err)
	}
}

func TestUDPOversizedEvent(t *testing.T) {
	l, err := Listen("udp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	client, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	e := testEvent(1)
	e.Payload = make([]byte, maxDatagram+1)
	if err := client.Send(e); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Send oversized = %v, want ErrTooLarge", err)
	}
}

func TestDialErrors(t *testing.T) {
	cases := []string{"", "noscheme", "bogus://x", "mem://"}
	for _, u := range cases {
		if _, err := Dial(u); err == nil {
			t.Errorf("Dial(%q) succeeded", u)
		}
	}
	if _, err := Listen("bogus://x"); err == nil {
		t.Error("Listen with unknown scheme succeeded")
	}
}

func TestShapeZeroProfileIsPassthrough(t *testing.T) {
	a, _ := Pipe("x", "y")
	if got := Shape(a, LinkProfile{}); got != a {
		t.Fatal("zero profile should return conn unchanged")
	}
}

func TestShapePropDelay(t *testing.T) {
	a, b := Pipe("x", "y")
	const delay = 30 * time.Millisecond
	sa := Shape(a, LinkProfile{PropDelay: delay})
	defer sa.Close()
	start := time.Now()
	if err := sa.Send(testEvent(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < delay {
		t.Fatalf("delivered after %v, want >= %v", got, delay)
	}
}

func TestShapeLossDropsAll(t *testing.T) {
	a, b := Pipe("x", "y")
	sa := Shape(a, LinkProfile{Loss: 1.0})
	defer sa.Close()
	for i := range 10 {
		if err := sa.Send(testEvent(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// A zero-loss marker after closing the shaped conn: direct send.
	if err := a.Send(testEvent(100)); err != nil {
		t.Fatal(err)
	}
	e, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != 100 {
		t.Fatalf("received %d, want only the marker 100", e.ID)
	}
}

func TestShapeLossStatistical(t *testing.T) {
	a, b := Pipe("x", "y")
	sa := Shape(a, LinkProfile{Loss: 0.5, Seed: 42})
	defer sa.Close()
	const n = 1000
	for i := range n {
		if err := sa.Send(testEvent(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	received := 0
	for {
		done := false
		select {
		case <-time.After(50 * time.Millisecond):
			done = true
		default:
			a2 := b.(*memConn)
			select {
			case <-a2.recv:
				received++
			default:
				done = true
			}
		}
		if done {
			break
		}
	}
	if received < 400 || received > 600 {
		t.Fatalf("received %d of %d with 50%% loss, want ~500", received, n)
	}
}

func TestShapeOrderPreservedWithoutJitter(t *testing.T) {
	a, b := Pipe("x", "y")
	sa := Shape(a, LinkProfile{PropDelay: 5 * time.Millisecond})
	defer sa.Close()
	const n = 100
	for i := range n {
		if err := sa.Send(testEvent(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := range n {
		e, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if e.ID != uint64(i) {
			t.Fatalf("event %d arrived out of order (got id %d)", i, e.ID)
		}
	}
}

func TestShapeSendCostBlocksSender(t *testing.T) {
	a, _ := Pipe("x", "y")
	const cost = 2 * time.Millisecond
	sa := Shape(a, LinkProfile{SendCost: cost})
	defer sa.Close()
	start := time.Now()
	const n = 10
	for i := range n {
		if err := sa.Send(testEvent(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := time.Since(start); got < n*cost {
		t.Fatalf("%d sends took %v, want >= %v", n, got, n*cost)
	}
}

func TestSpinWaitAccuracy(t *testing.T) {
	for _, d := range []time.Duration{50 * time.Microsecond, 500 * time.Microsecond, 2 * time.Millisecond} {
		start := time.Now()
		spinWait(d)
		got := time.Since(start)
		if got < d {
			t.Errorf("spinWait(%v) returned after %v", d, got)
		}
		if got > d+5*time.Millisecond {
			t.Errorf("spinWait(%v) overshot to %v", d, got)
		}
	}
}

func TestShapedCloseStopsDelayLine(t *testing.T) {
	a, b := Pipe("x", "y")
	sa := Shape(a, LinkProfile{PropDelay: time.Hour})
	if err := sa.Send(testEvent(1)); err != nil {
		t.Fatal(err)
	}
	if err := sa.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv = %v, want ErrClosed after shaped close", err)
	}
}

func TestConnLabels(t *testing.T) {
	a, b := Pipe("peer-b", "peer-a")
	if a.Label() != "peer-b" || b.Label() != "peer-a" {
		t.Fatalf("labels = %q, %q", a.Label(), b.Label())
	}
	sa := Shape(a, LinkProfile{Loss: 0.1})
	if sa.Label() != "peer-b" {
		t.Fatalf("shaped label = %q", sa.Label())
	}
}

func BenchmarkMemPipeRoundtrip(b *testing.B) {
	x, y := Pipe("x", "y")
	defer x.Close()
	e := testEvent(1)
	b.ReportAllocs()
	for b.Loop() {
		if err := x.Send(e); err != nil {
			b.Fatal(err)
		}
		if _, err := y.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPRoundtrip(b *testing.B) {
	l, err := Listen("tcp://127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	acceptCh := make(chan Conn, 1)
	go func() {
		c, _ := l.Accept()
		acceptCh <- c
	}()
	client, err := Dial(l.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	server := <-acceptCh
	defer server.Close()
	e := testEvent(1)
	e.Payload = make([]byte, 1200)
	b.ReportAllocs()
	for b.Loop() {
		if err := client.Send(e); err != nil {
			b.Fatal(err)
		}
		if _, err := server.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}
