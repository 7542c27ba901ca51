package admire

import (
	"context"
	"net"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/media"
	"github.com/globalmmcs/globalmmcs/internal/rtp"
	"github.com/globalmmcs/globalmmcs/internal/testutil"
	"github.com/globalmmcs/globalmmcs/internal/transport"
	"github.com/globalmmcs/globalmmcs/internal/wsci"
	"github.com/globalmmcs/globalmmcs/internal/xgsp"
)

func TestConferenceLifecycle(t *testing.T) {
	s := NewServer()
	defer s.Stop()
	c, err := s.CreateConference("grid-lecture")
	if err != nil {
		t.Fatal(err)
	}
	if c.ID == "" || c.Name != "grid-lecture" {
		t.Fatalf("conference = %+v", c)
	}
	if _, ok := s.Conference(c.ID); !ok {
		t.Fatal("lookup failed")
	}
	addr, err := s.RendezvousAddr(c.ID)
	if err != nil || addr == "" {
		t.Fatalf("rendezvous = %q, %v", addr, err)
	}
	if _, err := s.RendezvousAddr("nope"); err == nil {
		t.Fatal("phantom rendezvous")
	}
	m1, err := s.Join(c.ID, "wang")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.Join(c.ID, "li")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Members(c.ID); !slices.Equal(got, []string{"li", "wang"}) {
		t.Fatalf("members = %v", got)
	}
	// Conference multicast works member-to-member.
	m1.Send([]byte("ni hao"))
	select {
	case got := <-m2.Recv():
		if string(got) != "ni hao" {
			t.Fatalf("got %q", got)
		}
	case <-time.After(time.Second):
		t.Fatal("bus delivery failed")
	}
	if _, err := s.Join("nope", "x"); err == nil {
		t.Fatal("join of unknown conference")
	}
}

func TestRendezvousAgentBridgesUDP(t *testing.T) {
	s := NewServer()
	defer s.Stop()
	c, err := s.CreateConference("udp-bridge")
	if err != nil {
		t.Fatal(err)
	}
	member, err := s.Join(c.ID, "local")
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.RendezvousAddr(c.ID)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	// Remote → conference.
	if _, err := remote.Write([]byte("from outside")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-member.Recv():
		if string(got) != "from outside" {
			t.Fatalf("got %q", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("rendezvous → bus failed")
	}
	// Conference → remote (remote address was learned).
	member.Send([]byte("from inside"))
	buf := make([]byte, 1024)
	if err := remote.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := remote.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "from inside" {
		t.Fatalf("got %q", buf[:n])
	}
}

func TestWebService(t *testing.T) {
	s := NewServer()
	defer s.Stop()
	ts := httptest.NewServer(s.WebService())
	defer ts.Close()
	client := wsci.NewClient(ts.URL)

	var created CreateConferenceResponse
	if err := client.Call(&CreateConferenceRequest{Name: "soap-conf"}, &created); err != nil {
		t.Fatal(err)
	}
	if created.ID == "" {
		t.Fatal("no id")
	}
	var rend RendezvousResponse
	if err := client.Call(&RendezvousRequest{ID: created.ID}, &rend); err != nil {
		t.Fatal(err)
	}
	if rend.Addr == "" {
		t.Fatal("no rendezvous addr")
	}
	var join JoinResponse
	if err := client.Call(&JoinRequest{ID: created.ID, User: "zhang"}, &join); err != nil {
		t.Fatal(err)
	}
	if !join.OK {
		t.Fatal("join not ok")
	}
	var list ListResponse
	if err := client.Call(&ListRequest{}, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.IDs) != 1 || list.Names[0] != "soap-conf" {
		t.Fatalf("list = %+v", list)
	}
	// Unknown conference faults.
	var rend2 RendezvousResponse
	if err := client.Call(&RendezvousRequest{ID: "bogus"}, &rend2); err == nil {
		t.Fatal("phantom rendezvous over soap")
	}
}

func TestBridgeEndToEnd(t *testing.T) {
	// Full integration: Admire member ↔ bridge ↔ MMCS session topic.
	b := broker.New(broker.Config{ID: "admire-bridge-test"})
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
	ownerBC, err := b.LocalClient("owner", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ownerBC.Close() })
	owner, err := xgsp.NewClient(context.Background(), ownerBC, "owner")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(owner.Close)
	info, err := owner.Create(context.Background(), xgsp.CreateSession{Name: "joint-seminar", Community: "admire"})
	if err != nil {
		t.Fatal(err)
	}

	adm := NewServer()
	t.Cleanup(adm.Stop)
	ts := httptest.NewServer(adm.WebService())
	t.Cleanup(ts.Close)
	ws := wsci.NewClient(ts.URL)
	var created CreateConferenceResponse
	if err := ws.Call(&CreateConferenceRequest{Name: "joint-seminar"}, &created); err != nil {
		t.Fatal(err)
	}

	bridgeBC, err := b.LocalClient("admire-bridge", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bridgeBC.Close() })
	bridge, err := NewBridge(bridgeBC, info, created.ID, ws)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bridge.Close)

	// Admire participant.
	admMember, err := adm.Join(created.ID, "beihang-user")
	if err != nil {
		t.Fatal(err)
	}
	// MMCS participant.
	mmcsBC, err := b.LocalClient("mmcs-user", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mmcsBC.Close() })
	audioTopic := xgsp.SessionTopic(info.ID, "audio")
	mmcsSub, err := mmcsBC.Subscribe(audioTopic, 64)
	if err != nil {
		t.Fatal(err)
	}

	// Direction 1: MMCS → Admire. The bridge must first learn nothing —
	// it sends to the rendezvous proactively, so this works immediately.
	src := media.NewAudioSource(media.AudioConfig{})
	pkt := src.NextPacket()
	raw, err := pkt.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := mmcsBC.Publish(audioTopic, event.KindRTP, raw); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-admMember.Recv():
		var p rtp.Packet
		if err := p.Unmarshal(got); err != nil {
			t.Fatal(err)
		}
		if p.SequenceNumber != pkt.SequenceNumber {
			t.Fatalf("seq = %d", p.SequenceNumber)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("MMCS → Admire failed")
	}

	// Drain the loopback copy of our own publish (broker pub/sub
	// delivers to all subscribers, including the publisher's).
	if _, err := recvWithin(mmcsSub, 5*time.Second); err != nil {
		t.Fatal("loopback copy missing")
	}

	// Direction 2: Admire → MMCS.
	pkt2 := src.NextPacket()
	raw2, err := pkt2.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	admMember.Send(raw2)
	e, err := recvWithin(mmcsSub, 5*time.Second)
	if err != nil {
		t.Fatal("Admire → MMCS failed")
	}
	var p rtp.Packet
	if err := p.Unmarshal(e.Payload); err != nil {
		t.Fatal(err)
	}
	if p.SequenceNumber != pkt2.SequenceNumber {
		t.Fatalf("seq = %d", p.SequenceNumber)
	}
}

// TestBridgeCloseWithClientOpen: Close stops the relay goroutines while
// the broker client, which the caller owns, stays open.
func TestBridgeCloseWithClientOpen(t *testing.T) {
	b := broker.New(broker.Config{ID: "admire-close"})
	t.Cleanup(b.Stop)
	bc, err := b.LocalClient("admire-bridge", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	adm := NewServer()
	t.Cleanup(adm.Stop)
	ts := httptest.NewServer(adm.WebService())
	t.Cleanup(ts.Close)
	ws := wsci.NewClient(ts.URL)
	// The first call opens the keep-alive HTTP connection the bridge's
	// rendezvous call reuses, so its goroutines are in the baseline.
	var created CreateConferenceResponse
	if err := ws.Call(&CreateConferenceRequest{Name: "closing"}, &created); err != nil {
		t.Fatal(err)
	}
	testutil.CheckGoroutines(t)
	info := &xgsp.SessionInfo{ID: "s1", Media: []xgsp.MediaDesc{
		{Type: xgsp.MediaAudio, Topic: xgsp.SessionTopic("s1", "audio")},
		{Type: xgsp.MediaVideo, Topic: xgsp.SessionTopic("s1", "video")},
	}}
	bridge, err := NewBridge(bc, info, created.ID, ws)
	if err != nil {
		t.Fatal(err)
	}
	bridge.Close()
}

func TestBridgeRequiresMedia(t *testing.T) {
	b := broker.New(broker.Config{ID: "no-media"})
	t.Cleanup(b.Stop)
	bc, err := b.LocalClient("bc", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	adm := NewServer()
	t.Cleanup(adm.Stop)
	ts := httptest.NewServer(adm.WebService())
	t.Cleanup(ts.Close)
	conf, err := adm.CreateConference("x")
	if err != nil {
		t.Fatal(err)
	}
	info := &xgsp.SessionInfo{ID: "s1"} // no media
	if _, err := NewBridge(bc, info, conf.ID, wsci.NewClient(ts.URL)); err == nil {
		t.Fatal("bridge without media accepted")
	}
}

func TestServerStoppedRejectsCreate(t *testing.T) {
	s := NewServer()
	s.Stop()
	if _, err := s.CreateConference("late"); err == nil {
		t.Fatal("create after stop")
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
