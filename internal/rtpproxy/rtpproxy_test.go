package rtpproxy

import (
	"context"
	"net"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/media"
	"github.com/globalmmcs/globalmmcs/internal/rtp"
	"github.com/globalmmcs/globalmmcs/internal/testutil"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

func newProxyRig(t *testing.T) (*broker.Broker, *Proxy) {
	t.Helper()
	b := broker.New(broker.Config{ID: "proxy-test"})
	t.Cleanup(b.Stop)
	bc, err := b.LocalClient("rtpproxy", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	p := New(bc)
	t.Cleanup(p.Close)
	return b, p
}

func rawRTP(t *testing.T, seq uint16) []byte {
	t.Helper()
	p := &rtp.Packet{PayloadType: rtp.PayloadPCMU, SequenceNumber: seq, Timestamp: uint32(seq) * 160, SSRC: 7}
	p.Payload = []byte{1, 2, 3, 4}
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestEndpointToTopic(t *testing.T) {
	b, p := newProxyRig(t)
	binding, err := p.Bind("/xgsp/session/s1/audio", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// A broker subscriber should observe the endpoint's raw RTP as events.
	sub, err := b.LocalClient("observer", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	s, err := sub.Subscribe("/xgsp/session/s1/audio", 16)
	if err != nil {
		t.Fatal(err)
	}

	ep, err := net.Dial("udp", binding.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if _, err := ep.Write(rawRTP(t, 1)); err != nil {
		t.Fatal(err)
	}
	e, err := recvWithin(s, 5*time.Second)
	if err != nil {
		t.Fatal("raw RTP never reached the topic")
	}
	var pkt rtp.Packet
	if err := pkt.Unmarshal(e.Payload); err != nil {
		t.Fatal(err)
	}
	if pkt.SequenceNumber != 1 {
		t.Fatalf("seq = %d", pkt.SequenceNumber)
	}
	in, _ := binding.Stats()
	if in != 1 {
		t.Fatalf("in = %d", in)
	}
}

func TestTopicToEndpoint(t *testing.T) {
	b, p := newProxyRig(t)
	binding, err := p.Bind("/xgsp/session/s2/video", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := binding.SetRemote(ep.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	pub, err := b.LocalClient("pub", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish("/xgsp/session/s2/video", 2 /* KindRTP */, rawRTP(t, 9)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	if err := ep.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	n, _, err := ep.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	var pkt rtp.Packet
	if err := pkt.Unmarshal(buf[:n]); err != nil {
		t.Fatal(err)
	}
	if pkt.SequenceNumber != 9 {
		t.Fatalf("seq = %d", pkt.SequenceNumber)
	}
}

func TestTwoGatewaysBridgedThroughTopic(t *testing.T) {
	// Two proxies (distinct broker clients, as two gateways would be) on
	// the same topic: raw RTP entering gateway A's binding comes out of
	// gateway B's binding toward its endpoint.
	b, pa := newProxyRig(t)
	bcB, err := b.LocalClient("rtpproxy-b", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bcB.Close() })
	pb := New(bcB)
	t.Cleanup(pb.Close)

	bindA, err := pa.Bind("/xgsp/session/s3/audio", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bindB, err := pb.Bind("/xgsp/session/s3/audio", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()
	if err := bindB.SetRemote(epB.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	epA, err := net.Dial("udp", bindA.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	if _, err := epA.Write(rawRTP(t, 42)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	if err := epB.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	n, _, err := epB.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	var pkt rtp.Packet
	if err := pkt.Unmarshal(buf[:n]); err != nil {
		t.Fatal(err)
	}
	if pkt.SequenceNumber != 42 {
		t.Fatalf("seq = %d", pkt.SequenceNumber)
	}
}

func TestBindingIgnoresOwnEcho(t *testing.T) {
	_, p := newProxyRig(t)
	binding, err := p.Bind("/xgsp/session/s4/audio", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := binding.SetRemote(ep.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	// Endpoint sends a packet; the proxy publishes it; the subscription
	// loops it back — but it must NOT be forwarded back to the endpoint.
	sender, err := net.Dial("udp", binding.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	if _, err := sender.Write(rawRTP(t, 3)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	if err := ep.SetReadDeadline(time.Now().Add(500 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if n, _, err := ep.ReadFrom(buf); err == nil {
		t.Fatalf("echo forwarded to endpoint (%d bytes)", n)
	}
	_, out := binding.Stats()
	if out != 0 {
		t.Fatalf("out = %d, want 0", out)
	}
}

func TestBindingDropsGarbage(t *testing.T) {
	b, p := newProxyRig(t)
	binding, err := p.Bind("/xgsp/session/s5/audio", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	obs, err := b.LocalClient("obs", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	defer obs.Close()
	s, err := obs.Subscribe("/xgsp/session/s5/audio", 16)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := net.Dial("udp", binding.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if _, err := ep.Write([]byte("not rtp at all")); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Write(rawRTP(t, 5)); err != nil {
		t.Fatal(err)
	}
	e, err := recvWithin(s, 5*time.Second)
	if err != nil {
		t.Fatal("valid packet lost")
	}
	var pkt rtp.Packet
	if err := pkt.Unmarshal(e.Payload); err != nil {
		t.Fatal("garbage forwarded")
	}
	if pkt.SequenceNumber != 5 {
		t.Fatalf("seq = %d", pkt.SequenceNumber)
	}
}

func TestLearnRemoteFromFirstPacket(t *testing.T) {
	_, p := newProxyRig(t)
	binding, err := p.Bind("/xgsp/session/s6/audio", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if binding.remote.Load() != nil {
		t.Fatal("remote set before any packet")
	}
	ep, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if _, err := ep.WriteTo(rawRTP(t, 7), mustAddr(t, binding.LocalAddr())); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for binding.remote.Load() == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	got := binding.remote.Load()
	if got == nil || got.String() != ep.LocalAddr().String() {
		t.Fatalf("learned remote = %v, want %v", got, ep.LocalAddr())
	}
}

func TestProxyCloseIdempotent(t *testing.T) {
	_, p := newProxyRig(t)
	binding, err := p.Bind("/xgsp/session/s7/audio", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	binding.Close()
	binding.Close()
	p.Close()
	if _, err := p.Bind("/t", "127.0.0.1:0"); err == nil {
		t.Fatal("bind after close succeeded")
	}
}

// TestBindingCloseWithClientOpen: closing a binding stops both of its
// loops while the broker client, which the caller owns, stays open.
func TestBindingCloseWithClientOpen(t *testing.T) {
	_, p := newProxyRig(t)
	testutil.CheckGoroutines(t)
	binding, err := p.Bind("/xgsp/session/s9/audio", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	binding.Close()
}

func mustAddr(t *testing.T, s string) net.Addr {
	t.Helper()
	a, err := net.ResolveUDPAddr("udp", s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestMediaStreamThroughProxy(t *testing.T) {
	b, p := newProxyRig(t)
	binding, err := p.Bind("/xgsp/session/s8/audio", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	obs, err := b.LocalClient("obs8", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	defer obs.Close()
	s, err := obs.Subscribe("/xgsp/session/s8/audio", 256)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := net.Dial("udp", binding.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	src := media.NewAudioSource(media.AudioConfig{})
	const n = 50
	for range n {
		pkt := src.NextPacket()
		raw, err := pkt.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ep.Write(raw); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	deadline := time.Now().Add(5 * time.Second)
	for got < n {
		if _, err := recvWithin(s, time.Until(deadline)); err != nil {
			t.Fatalf("received %d/%d", got, n)
		}
		got++
	}
}

// recvWithin receives one event from sub, waiting at most d.
func recvWithin(sub *broker.Subscription, d time.Duration) (*event.Event, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	buf, err := sub.RecvBatchContext(ctx, nil, 1)
	if err != nil {
		return nil, err
	}
	return buf[0], nil
}
