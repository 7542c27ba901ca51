package reflector

import (
	"fmt"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/media"
	"github.com/globalmmcs/globalmmcs/internal/rtp"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

func TestReflectorFanout(t *testing.T) {
	r := New(Config{})
	defer r.Stop()
	const n = 10
	farEnds := make([]transport.Conn, n)
	for i := range n {
		near, far := transport.Pipe(fmt.Sprintf("recv%d", i), "reflector")
		if err := r.AddReceiver(near); err != nil {
			t.Fatal(err)
		}
		farEnds[i] = far
	}
	if r.ReceiverCount() != n {
		t.Fatalf("ReceiverCount = %d", r.ReceiverCount())
	}
	srcNear, srcFar := transport.Pipe("reflector", "sender")
	r.ServeSourceAsync(srcNear)

	pub := NewConnPublisher(srcFar, "sender")
	a := media.NewAudioSource(media.AudioConfig{})
	p := a.NextPacket()
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.PublishEvent(event.New("/media/a", event.KindRTP, b)); err != nil {
		t.Fatal(err)
	}
	for i, far := range farEnds {
		select {
		case <-time.After(2 * time.Second):
			t.Fatalf("receiver %d got nothing", i)
		default:
		}
		e, err := far.Recv()
		if err != nil {
			t.Fatalf("receiver %d: %v", i, err)
		}
		var got rtp.Packet
		if err := got.Unmarshal(e.Payload); err != nil {
			t.Fatalf("receiver %d: reflected payload unparseable: %v", i, err)
		}
		if got.SequenceNumber != p.SequenceNumber {
			t.Fatalf("receiver %d: seq %d, want %d", i, got.SequenceNumber, p.SequenceNumber)
		}
		if err := media.VerifyPayload(&got); err != nil {
			t.Fatalf("receiver %d: %v", i, err)
		}
	}
	in, out := r.Stats()
	if in != 1 || out != uint64(n) {
		t.Fatalf("stats in=%d out=%d, want 1,%d", in, out, n)
	}
}

func TestReflectorPreservesEventTimestamp(t *testing.T) {
	r := New(Config{})
	defer r.Stop()
	near, far := transport.Pipe("recv", "reflector")
	if err := r.AddReceiver(near); err != nil {
		t.Fatal(err)
	}
	srcNear, srcFar := transport.Pipe("reflector", "sender")
	r.ServeSourceAsync(srcNear)

	e := event.New("/media/v", event.KindRTP, mustRTP(t))
	e.Source, e.ID = "s", 1
	sentTS := e.Timestamp
	if err := srcFar.Send(e); err != nil {
		t.Fatal(err)
	}
	got, err := far.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Timestamp != sentTS {
		t.Fatalf("timestamp rewritten: %d != %d (delay measurement would break)", got.Timestamp, sentTS)
	}
}

func TestReflectorDeadReceiverDoesNotBlockOthers(t *testing.T) {
	r := New(Config{})
	defer r.Stop()
	deadNear, deadFar := transport.Pipe("dead", "reflector")
	deadFar.Close()
	_ = deadNear
	if err := r.AddReceiver(deadNear); err != nil {
		t.Fatal(err)
	}
	liveNear, liveFar := transport.Pipe("live", "reflector")
	if err := r.AddReceiver(liveNear); err != nil {
		t.Fatal(err)
	}
	srcNear, srcFar := transport.Pipe("reflector", "sender")
	r.ServeSourceAsync(srcNear)
	e := event.New("/m", event.KindRTP, mustRTP(t))
	e.Source, e.ID = "s", 1
	if err := srcFar.Send(e); err != nil {
		t.Fatal(err)
	}
	if _, err := liveFar.Recv(); err != nil {
		t.Fatalf("live receiver starved by dead one: %v", err)
	}
}

func TestReflectorAddAfterStop(t *testing.T) {
	r := New(Config{})
	r.Stop()
	near, _ := transport.Pipe("a", "b")
	if err := r.AddReceiver(near); err == nil {
		t.Fatal("AddReceiver after Stop succeeded")
	}
}

func TestReflectorSerializesSendCost(t *testing.T) {
	// With per-send cost C and N receivers, one packet must take ~N*C in
	// the dispatch thread — that is the baseline's defining bottleneck.
	r := New(Config{})
	defer r.Stop()
	const n = 8
	const cost = 2 * time.Millisecond
	for i := range n {
		near, far := transport.Pipe(fmt.Sprintf("r%d", i), "reflector")
		shaped := transport.Shape(near, transport.LinkProfile{SendCost: cost})
		if err := r.AddReceiver(shaped); err != nil {
			t.Fatal(err)
		}
		go func() {
			for {
				if _, err := far.Recv(); err != nil {
					return
				}
			}
		}()
	}
	e := event.New("/m", event.KindRTP, mustRTP(t))
	e.Source, e.ID = "s", 1
	start := time.Now()
	r.reflect(e)
	if got := time.Since(start); got < n*cost {
		t.Fatalf("reflect took %v, want >= %v (serialized)", got, n*cost)
	}
}

func TestConnPublisherStampsIdentity(t *testing.T) {
	a, b := transport.Pipe("x", "y")
	pub := NewConnPublisher(a, "me")
	if err := pub.PublishEvent(event.New("/t", event.KindData, nil)); err != nil {
		t.Fatal(err)
	}
	if err := pub.PublishEvent(event.New("/t", event.KindData, nil)); err != nil {
		t.Fatal(err)
	}
	e1, _ := b.Recv()
	e2, _ := b.Recv()
	if e1.Source != "me" || e1.ID != 1 || e2.ID != 2 {
		t.Fatalf("identity not stamped: %v %v", e1, e2)
	}
}

func mustRTP(t *testing.T) []byte {
	t.Helper()
	a := media.NewAudioSource(media.AudioConfig{})
	b, err := a.NextPacket().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
