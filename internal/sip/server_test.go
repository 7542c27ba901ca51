package sip

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/clock"
	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/media"
	"github.com/globalmmcs/globalmmcs/internal/rtp"
	"github.com/globalmmcs/globalmmcs/internal/rtpproxy"
	"github.com/globalmmcs/globalmmcs/internal/transport"
	"github.com/globalmmcs/globalmmcs/internal/xgsp"
)

// sipRig assembles broker + XGSP server + SIP gateway server.
type sipRig struct {
	b      *broker.Broker
	xsrv   *xgsp.Server
	xcli   *xgsp.Client
	server *Server
}

func newSIPRig(t *testing.T, fake clock.Clock) *sipRig {
	t.Helper()
	b := broker.New(broker.Config{ID: "sip-rig"})
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

	gwBC, err := b.LocalClient("sip-gateway", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gwBC.Close() })
	xcli, err := xgsp.NewClient(context.Background(), gwBC, "sip-gateway")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(xcli.Close)

	proxyBC, err := b.LocalClient("sip-rtpproxy", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxyBC.Close() })
	proxy := rtpproxy.New(proxyBC)
	t.Cleanup(proxy.Close)

	cfg := ServerConfig{XGSP: xcli, Proxy: proxy}
	if fake != nil {
		cfg.Clock = fake
	}
	server, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Stop)
	return &sipRig{b: b, xsrv: xsrv, xcli: xcli, server: server}
}

func (r *sipRig) endpoint(t *testing.T, user string) *Endpoint {
	t.Helper()
	e, err := NewEndpoint(user, r.server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestRegisterAndLookup(t *testing.T) {
	rig := newSIPRig(t, nil)
	alice := rig.endpoint(t, "alice")
	if err := alice.Register(rig.server.Domain(), time.Hour); err != nil {
		t.Fatal(err)
	}
	contact, ok := rig.server.RegisteredContact("alice")
	if !ok || contact.User != "alice" {
		t.Fatalf("contact = %+v, %v", contact, ok)
	}
	if err := alice.Unregister(rig.server.Domain()); err != nil {
		t.Fatal(err)
	}
	if _, ok := rig.server.RegisteredContact("alice"); ok {
		t.Fatal("binding survived unregister")
	}
}

func TestRegistrationExpiry(t *testing.T) {
	fake := clock.NewFake(time.Unix(1_000_000, 0))
	rig := newSIPRig(t, fake)
	alice := rig.endpoint(t, "alice")
	if err := alice.Register(rig.server.Domain(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := rig.server.RegisteredContact("alice"); !ok {
		t.Fatal("not registered")
	}
	fake.Advance(11 * time.Second)
	// Expiry loop runs on fake clock ticks; advance triggers one check.
	deadline := time.Now().Add(2 * time.Second)
	for {
		fake.Advance(time.Second)
		if _, ok := rig.server.RegisteredContact("alice"); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("binding never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestOptions(t *testing.T) {
	rig := newSIPRig(t, nil)
	alice := rig.endpoint(t, "alice")
	req := NewRequest(MethodOptions, "sip:"+rig.server.Domain(),
		alice.fromHeader(rig.server.Domain()), "<sip:"+rig.server.Domain()+">",
		alice.newCallID(), alice.nextCSeq.Add(1))
	resp, err := alice.transact(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != StatusOK || !strings.Contains(resp.Get("Allow"), "INVITE") {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestUnknownMethodRejected(t *testing.T) {
	rig := newSIPRig(t, nil)
	alice := rig.endpoint(t, "alice")
	req := NewRequest("PUBLISH", "sip:x@"+rig.server.Domain(),
		alice.fromHeader(rig.server.Domain()), "<sip:x>",
		alice.newCallID(), alice.nextCSeq.Add(1))
	resp, err := alice.transact(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != StatusMethodNotAllowed {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestGatewayCallFlow(t *testing.T) {
	rig := newSIPRig(t, nil)

	// Create a session through a regular XGSP user.
	ownerBC, err := rig.b.LocalClient("owner-bc", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ownerBC.Close() })
	owner, err := xgsp.NewClient(context.Background(), ownerBC, "owner")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(owner.Close)
	info, err := owner.Create(context.Background(), xgsp.CreateSession{Name: "sip-call-test"})
	if err != nil {
		t.Fatal(err)
	}

	// A broker-side observer subscribed to the session audio topic.
	obsBC, err := rig.b.LocalClient("obs-bc", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { obsBC.Close() })
	audioTopic := xgsp.SessionTopic(info.ID, "audio")
	obsSub, err := obsBC.Subscribe(audioTopic, 64)
	if err != nil {
		t.Fatal(err)
	}

	// The SIP endpoint allocates RTP sockets, then calls the session.
	alice := rig.endpoint(t, "alice")
	audioSock, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer audioSock.Close()
	audioPort := audioSock.LocalAddr().(*net.UDPAddr).Port

	call, err := alice.Invite(rig.server.Domain(), info.ID, audioPort, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rig.server.ActiveCalls() != 1 {
		t.Fatalf("active calls = %d", rig.server.ActiveCalls())
	}

	// The XGSP session now lists alice as a member.
	got := rig.xsrv.Lookup(info.ID)
	if got == nil || len(got.Members) != 1 || got.Members[0] != "alice" {
		t.Fatalf("members = %+v", got)
	}

	// Send raw RTP to the gateway's answered audio port; it must appear
	// on the broker topic.
	gwAudio, ok := call.AudioAddr()
	if !ok {
		t.Fatal("no audio in answer")
	}
	gwAddr, err := net.ResolveUDPAddr("udp", gwAudio)
	if err != nil {
		t.Fatal(err)
	}
	src := media.NewAudioSource(media.AudioConfig{})
	pkt := src.NextPacket()
	raw, err := pkt.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := audioSock.WriteTo(raw, gwAddr); err != nil {
		t.Fatal(err)
	}
	e, err := recvWithin(obsSub, 5*time.Second)
	if err != nil {
		t.Fatal("endpoint RTP never reached the session topic")
	}
	var p rtp.Packet
	if err := p.Unmarshal(e.Payload); err != nil {
		t.Fatal(err)
	}
	if p.SequenceNumber != pkt.SequenceNumber {
		t.Fatalf("seq = %d", p.SequenceNumber)
	}

	// Topic → endpoint direction: another member publishes; alice's
	// socket receives raw RTP.
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

	// Hang up: membership and call state clean up.
	if err := alice.Hangup(call); err != nil {
		t.Fatal(err)
	}
	if rig.server.ActiveCalls() != 0 {
		t.Fatal("call not removed")
	}
	got = rig.xsrv.Lookup(info.ID)
	if got == nil || len(got.Members) != 0 {
		t.Fatalf("members after bye = %+v", got)
	}
}

func TestInviteUnknownSession(t *testing.T) {
	rig := newSIPRig(t, nil)
	alice := rig.endpoint(t, "alice")
	if _, err := alice.Invite(rig.server.Domain(), "s999", 40000, 0); err == nil {
		t.Fatal("invite to unknown session succeeded")
	}
}

func TestInviteWithoutSDPRejected(t *testing.T) {
	rig := newSIPRig(t, nil)
	// Create an active session so the gateway path is reached.
	ownerBC, err := rig.b.LocalClient("o2", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ownerBC.Close() })
	owner, err := xgsp.NewClient(context.Background(), ownerBC, "owner2")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(owner.Close)
	info, err := owner.Create(context.Background(), xgsp.CreateSession{Name: "no-sdp"})
	if err != nil {
		t.Fatal(err)
	}
	alice := rig.endpoint(t, "alice")
	uri := "sip:" + info.ID + "@" + rig.server.Domain()
	req := NewRequest(MethodInvite, uri, alice.fromHeader(rig.server.Domain()),
		"<"+uri+">", alice.newCallID(), alice.nextCSeq.Add(1))
	resp, err := alice.transact(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestPagerMessageForwardedToUser(t *testing.T) {
	rig := newSIPRig(t, nil)
	alice := rig.endpoint(t, "alice")
	bob := rig.endpoint(t, "bob")
	if err := bob.Register(rig.server.Domain(), time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := alice.SendMessage(rig.server.Domain(), "bob", "hello bob"); err != nil {
		t.Fatal(err)
	}
	select {
	case req := <-bob.Requests():
		if req.Method != MethodMessage || string(req.Body) != "hello bob" {
			t.Fatalf("got %+v", req)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never forwarded")
	}
}

func TestMessageToUnknownUser(t *testing.T) {
	rig := newSIPRig(t, nil)
	alice := rig.endpoint(t, "alice")
	if err := alice.SendMessage(rig.server.Domain(), "ghost", "anyone?"); err == nil {
		t.Fatal("message to unknown user succeeded")
	}
}

func TestPresenceNotifications(t *testing.T) {
	rig := newSIPRig(t, nil)
	watcher := rig.endpoint(t, "watcher")
	target := rig.endpoint(t, "target")
	if err := watcher.WatchPresence(rig.server.Domain(), "target"); err != nil {
		t.Fatal(err)
	}
	// Immediate NOTIFY: target offline.
	ntf := recvRequest(t, watcher, MethodNotify)
	if !strings.Contains(string(ntf.Body), "closed") {
		t.Fatalf("initial presence should be closed: %s", ntf.Body)
	}
	// Target registers: watcher learns it is open.
	if err := target.Register(rig.server.Domain(), time.Hour); err != nil {
		t.Fatal(err)
	}
	ntf = recvRequest(t, watcher, MethodNotify)
	if !strings.Contains(string(ntf.Body), "open") {
		t.Fatalf("presence after register: %s", ntf.Body)
	}
	// Target unregisters: closed again.
	if err := target.Unregister(rig.server.Domain()); err != nil {
		t.Fatal(err)
	}
	ntf = recvRequest(t, watcher, MethodNotify)
	if !strings.Contains(string(ntf.Body), "closed") {
		t.Fatalf("presence after unregister: %s", ntf.Body)
	}
}

func recvRequest(t *testing.T, e *Endpoint, method string) *Message {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case req := <-e.Requests():
			if req.Method == method {
				return req
			}
		case <-deadline:
			t.Fatalf("no %s within 5s", method)
		}
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
