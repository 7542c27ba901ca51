package transport

import (
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
)

func burstEvent(id uint64) *event.Event {
	e := event.New("/burst/t", event.KindData, []byte("payload"))
	e.Source = "burst-src"
	e.ID = id
	return e
}

// TestTCPRecvBurst: one SendFrames batch arrives as one RecvBurst on the
// other side (everything the read syscall delivered, in one call).
func TestTCPRecvBurst(t *testing.T) {
	l, err := Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	dialer, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dialer.Close()
	server := <-accepted
	defer server.Close()

	const n = 32
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = event.Marshal(burstEvent(uint64(i + 1)))
	}
	if err := dialer.(FrameConn).SendFrames(frames); err != nil {
		t.Fatal(err)
	}
	bc := server.(BurstConn)
	var got []*event.Event
	for len(got) < n {
		burst, err := bc.RecvBurst(nil, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(burst) == 0 {
			t.Fatal("RecvBurst returned no events and no error")
		}
		got = append(got, burst...)
	}
	for i, e := range got {
		if e.ID != uint64(i+1) {
			t.Fatalf("event %d has ID %d, want %d", i, e.ID, i+1)
		}
	}
	// A steady stream coalesces: after the kernel buffered the whole
	// batch, at least one call must have decoded more than one event.
	if err := dialer.(FrameConn).SendFrames(frames); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the batch land in the socket buffer
	burst, err := bc.RecvBurst(nil, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(burst) < 2 {
		t.Fatalf("buffered batch yielded a burst of %d, want >= 2", len(burst))
	}
}

// TestTCPRecvBurstCap: max bounds a burst; the remainder stays buffered
// for the next call.
func TestTCPRecvBurstCap(t *testing.T) {
	l, err := Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	dialer, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dialer.Close()
	server := <-accepted
	defer server.Close()

	frames := make([][]byte, 10)
	for i := range frames {
		frames[i] = event.Marshal(burstEvent(uint64(i + 1)))
	}
	if err := dialer.(FrameConn).SendFrames(frames); err != nil {
		t.Fatal(err)
	}
	bc := server.(BurstConn)
	total := 0
	for total < 10 {
		burst, err := bc.RecvBurst(nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(burst) > 4 {
			t.Fatalf("burst of %d exceeds max 4", len(burst))
		}
		total += len(burst)
	}
}

// TestMemRecvBurst: an in-process pipe drains everything already
// buffered in one call.
func TestMemRecvBurst(t *testing.T) {
	a, b := Pipe("a", "b")
	defer a.Close()
	defer b.Close()
	for i := 1; i <= 5; i++ {
		if err := a.Send(burstEvent(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	burst, err := b.(BurstConn).RecvBurst(nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(burst) != 5 {
		t.Fatalf("burst = %d events, want 5", len(burst))
	}
	for i, e := range burst {
		if e.ID != uint64(i+1) {
			t.Fatalf("event %d has ID %d, want %d", i, e.ID, i+1)
		}
	}
}

// TestMemSendEvents: the batch entry point delivers in order.
func TestMemSendEvents(t *testing.T) {
	a, b := Pipe("a", "b")
	defer a.Close()
	defer b.Close()
	batch := []*event.Event{burstEvent(1), burstEvent(2), burstEvent(3)}
	if err := a.(EventBatchConn).SendEvents(batch); err != nil {
		t.Fatal(err)
	}
	for want := uint64(1); want <= 3; want++ {
		e, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if e.ID != want {
			t.Fatalf("got ID %d, want %d", e.ID, want)
		}
	}
}

// TestShapedFrameConnLoss: shaping a framed conn preserves the frame
// path and applies loss per frame — the substrate of the broker's
// reliable-retransmit tests over lossy framed links.
func TestShapedFrameConnLoss(t *testing.T) {
	l, err := Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	dialer, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dialer.Close()
	server := <-accepted
	defer server.Close()

	shaped := Shape(dialer, LinkProfile{Loss: 0.5, Seed: 7})
	fc, ok := shaped.(FrameConn)
	if !ok {
		t.Fatal("shaping a FrameConn lost the frame capability")
	}
	const n = 200
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = event.Marshal(burstEvent(uint64(i + 1)))
	}
	if err := fc.SendFrames(frames); err != nil {
		t.Fatal(err)
	}
	// Close the write side so the reader sees EOF after the survivors.
	dialer.Close()
	got := 0
	for {
		if _, err := server.Recv(); err != nil {
			break
		}
		got++
	}
	if got == 0 || got == n {
		t.Fatalf("lossy frame link delivered %d/%d, want strictly between", got, n)
	}
}
