package h323

import (
	"context"
	"math/rand/v2"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/media"
	"github.com/globalmmcs/globalmmcs/internal/rtp"
	"github.com/globalmmcs/globalmmcs/internal/rtpproxy"
	"github.com/globalmmcs/globalmmcs/internal/transport"
	"github.com/globalmmcs/globalmmcs/internal/xgsp"
)

func TestCodecRoundtrip(t *testing.T) {
	m := &Message{
		Type:         MsgOpenLogicalChannelAck,
		EndpointID:   "ep-1",
		GatekeeperID: "gk",
		Alias:        "alice",
		CallID:       "c-7",
		Conference:   "s1",
		DestAlias:    "s1",
		Reason:       "",
		Channel:      3,
		MediaKind:    "audio",
		RTPAddr:      "127.0.0.1:4000",
		RTCPAddr:     "127.0.0.1:4001",
		Capabilities: []string{"PCMU", "H261"},
		Bandwidth:    6400,
		SignalAddr:   "127.0.0.1:1720",
		Master:       true,
	}
	b, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("roundtrip:\n got %+v\nwant %+v", got, m)
	}
}

func TestCodecMinimal(t *testing.T) {
	m := &Message{Type: MsgGRQ}
	b, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 1 {
		t.Fatalf("minimal GRQ = %d bytes", len(b))
	}
	got, err := Unmarshal(b)
	if err != nil || got.Type != MsgGRQ {
		t.Fatalf("%+v, %v", got, err)
	}
}

func TestCodecErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := Unmarshal([]byte{0}); err == nil {
		t.Error("zero type accepted")
	}
	if _, err := Unmarshal([]byte{200}); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := (&Message{Type: 0}).Marshal(); err == nil {
		t.Error("marshal of invalid type accepted")
	}
	// Truncated field.
	b, err := (&Message{Type: MsgRRQ, Alias: "alice"}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(b[:len(b)-2]); err == nil {
		t.Error("truncated field accepted")
	}
}

func TestCodecFuzzNoPanic(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 23))
	for range 3000 {
		b := make([]byte, rng.IntN(128))
		for i := range b {
			b[i] = byte(rng.UintN(256))
		}
		_, _ = Unmarshal(b)
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgSetup.String() != "Setup" || MsgARQ.String() != "ARQ" {
		t.Error("names")
	}
	if MsgType(99).String() != "h323-msg(99)" {
		t.Error("unknown name")
	}
}

// h323Rig assembles broker + XGSP + gatekeeper + gateway.
type h323Rig struct {
	b    *broker.Broker
	xsrv *xgsp.Server
	gk   *Gatekeeper
	gw   *Gateway
}

func newH323Rig(t *testing.T) *h323Rig {
	t.Helper()
	b := broker.New(broker.Config{ID: "h323-rig"})
	t.Cleanup(b.Stop)

	xc, err := b.LocalClient("xgsp-server", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	xsrv := xgsp.NewServer(xc, xgsp.ServerConfig{})
	if err := xsrv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(xsrv.Stop)

	gwBC, err := b.LocalClient("h323-gateway", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gwBC.Close() })
	xcli, err := xgsp.NewClient(context.Background(), gwBC, "h323-gateway")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(xcli.Close)

	proxyBC, err := b.LocalClient("h323-rtpproxy", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxyBC.Close() })
	proxy := rtpproxy.New(proxyBC)
	t.Cleanup(proxy.Close)

	gw, err := NewGateway(GatewayConfig{XGSP: xcli, Proxy: proxy})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Stop)

	gk, err := NewGatekeeper(GatekeeperConfig{SignalAddr: gw.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gk.Stop)
	gw.cfg.Gatekeeper = gk
	return &h323Rig{b: b, xsrv: xsrv, gk: gk, gw: gw}
}

func (r *h323Rig) createSession(t *testing.T, name string) *xgsp.SessionInfo {
	t.Helper()
	bc, err := r.b.LocalClient("owner-"+name, transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	owner, err := xgsp.NewClient(context.Background(), bc, "owner-"+name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(owner.Close)
	info, err := owner.Create(context.Background(), xgsp.CreateSession{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func TestGatekeeperDiscoveryRegistrationAdmission(t *testing.T) {
	rig := newH323Rig(t)
	ep, err := NewEndpoint("alice", rig.gk.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := ep.Discover(); err != nil {
		t.Fatal(err)
	}
	if ep.signalAddr != rig.gw.Addr() {
		t.Fatalf("signal addr = %q, want %q", ep.signalAddr, rig.gw.Addr())
	}
	if err := ep.Register(); err != nil {
		t.Fatal(err)
	}
	if !rig.gk.Registered("alice") {
		t.Fatal("alias not registered")
	}
	if ep.endpointID == "" {
		t.Fatal("no endpoint id assigned")
	}
}

func TestRegistrationRequiresAlias(t *testing.T) {
	rig := newH323Rig(t)
	ep, err := NewEndpoint("", rig.gk.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := ep.Register(); err == nil {
		t.Fatal("empty alias registered")
	}
}

func TestAdmissionRequiresRegistration(t *testing.T) {
	rig := newH323Rig(t)
	ep, err := NewEndpoint("bob", rig.gk.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := ep.Discover(); err != nil {
		t.Fatal(err)
	}
	// PlaceCall without Register must fail at ARQ.
	if _, err := ep.PlaceCall("s1", nil); err == nil {
		t.Fatal("call admitted without registration")
	}
}

func TestFullCallFlow(t *testing.T) {
	rig := newH323Rig(t)
	info := rig.createSession(t, "h323-conf")

	ep, err := NewEndpoint("alice", rig.gk.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := ep.Discover(); err != nil {
		t.Fatal(err)
	}
	if err := ep.Register(); err != nil {
		t.Fatal(err)
	}

	// The endpoint's media receive socket.
	audioSock, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer audioSock.Close()

	call, err := ep.PlaceCall(info.ID, map[string]string{"audio": audioSock.LocalAddr().String()})
	if err != nil {
		t.Fatal(err)
	}
	if call.Conference != info.ID {
		t.Fatalf("conference = %q", call.Conference)
	}
	if len(call.Channels) != 1 {
		t.Fatalf("channels = %v", call.Channels)
	}

	// Session membership reflects the H.323 participant.
	got := rig.xsrv.Lookup(info.ID)
	if got == nil || len(got.Members) != 1 || got.Members[0] != "alice" {
		t.Fatalf("members = %+v", got)
	}

	// Media path: endpoint → gateway port → topic.
	obsBC, err := rig.b.LocalClient("obs", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	defer obsBC.Close()
	audioTopic := xgsp.SessionTopic(info.ID, "audio")
	obsSub, err := obsBC.Subscribe(audioTopic, 64)
	if err != nil {
		t.Fatal(err)
	}
	var gwAddr string
	for _, addr := range call.Channels {
		gwAddr = addr
	}
	ua, err := net.ResolveUDPAddr("udp", gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	src := media.NewAudioSource(media.AudioConfig{})
	pkt := src.NextPacket()
	raw, err := pkt.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := audioSock.WriteTo(raw, ua); err != nil {
		t.Fatal(err)
	}
	e, err := recvWithin(obsSub, 5*time.Second)
	if err != nil {
		t.Fatal("endpoint RTP never reached topic")
	}
	var p rtp.Packet
	if err := p.Unmarshal(e.Payload); err != nil {
		t.Fatal(err)
	}
	if p.SequenceNumber != pkt.SequenceNumber {
		t.Fatalf("seq = %d", p.SequenceNumber)
	}

	// Topic → endpoint direction.
	if err := obsBC.Publish(audioTopic, 2 /* KindRTP */, raw); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	if err := audioSock.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := audioSock.ReadFrom(buf); err != nil {
		t.Fatalf("no RTP back to endpoint: %v", err)
	}

	// Hangup cleans everything.
	if err := call.Hangup(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		s := rig.xsrv.Lookup(info.ID)
		return s != nil && len(s.Members) == 0
	})
	waitFor(t, 5*time.Second, func() bool { return rig.gw.ActiveCalls() == 0 })
	if _, _, ok := rig.gk.Admission(call.ID); ok {
		t.Fatal("admission survived disengage")
	}
}

func TestCallToUnknownSessionReleased(t *testing.T) {
	rig := newH323Rig(t)
	ep, err := NewEndpoint("alice", rig.gk.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := ep.Discover(); err != nil {
		t.Fatal(err)
	}
	if err := ep.Register(); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.PlaceCall("s404", nil); err == nil {
		t.Fatal("call to unknown session succeeded")
	}
}

func TestSetupWithoutAdmissionRejected(t *testing.T) {
	rig := newH323Rig(t)
	info := rig.createSession(t, "gate-check")
	// Dial the gateway directly with a Setup that the gatekeeper never
	// admitted.
	conn, err := net.Dial("tcp", rig.gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFramed(conn, &Message{
		Type:       MsgSetup,
		CallID:     "rogue-call",
		Alias:      "mallory",
		Conference: info.ID,
	}); err != nil {
		t.Fatal(err)
	}
	msg, err := readFramed(conn)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgReleaseComplete {
		t.Fatalf("got %s, want ReleaseComplete", msg.Type)
	}
}

func TestVideoChannel(t *testing.T) {
	rig := newH323Rig(t)
	info := rig.createSession(t, "video-conf")
	ep, err := NewEndpoint("vid", rig.gk.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := ep.Discover(); err != nil {
		t.Fatal(err)
	}
	if err := ep.Register(); err != nil {
		t.Fatal(err)
	}
	aSock, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer aSock.Close()
	vSock, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer vSock.Close()
	call, err := ep.PlaceCall(info.ID, map[string]string{
		"audio": aSock.LocalAddr().String(),
		"video": vSock.LocalAddr().String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(call.Channels) != 2 {
		t.Fatalf("channels = %v", call.Channels)
	}
	if err := call.Hangup(); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, within time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not reached")
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
