package im

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

type imRig struct {
	b   *broker.Broker
	svc *Service
}

func newIMRig(t *testing.T) *imRig {
	t.Helper()
	b := broker.New(broker.Config{ID: "im-rig"})
	t.Cleanup(b.Stop)
	bc, err := b.LocalClient("im-service", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(context.Background(), bc, ServiceConfig{historyLimit: 5, Communities: []string{"global", "admire"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Stop)
	return &imRig{b: b, svc: svc}
}

func (r *imRig) chatter(t *testing.T, user string) *Chatter {
	t.Helper()
	bc, err := r.b.LocalClient("im-"+user, transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	c, err := NewChatter(bc, user)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestChatRoomDelivery(t *testing.T) {
	rig := newIMRig(t)
	alice := rig.chatter(t, "alice")
	bob := rig.chatter(t, "bob")
	room, err := bob.JoinRoom(context.Background(), "s1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Send("s1", "hello room"); err != nil {
		t.Fatal(err)
	}
	e, err := recvWithin(room, 5*time.Second)
	if err != nil {
		t.Fatal("message never delivered")
	}
	m, err := ParseChat(e)
	if err != nil {
		t.Fatal(err)
	}
	if m.From != "alice" || m.Body != "hello room" || m.Session != "s1" {
		t.Fatalf("message = %+v", m)
	}
	if m.At == 0 {
		t.Fatal("timestamp missing")
	}
}

func TestRoomsAreIsolated(t *testing.T) {
	rig := newIMRig(t)
	alice := rig.chatter(t, "alice")
	bob := rig.chatter(t, "bob")
	room2, err := bob.JoinRoom(context.Background(), "s2", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Send("s1", "for room one"); err != nil {
		t.Fatal(err)
	}
	if e, err := recvWithin(room2, 200*time.Millisecond); err == nil {
		t.Fatalf("cross-room delivery: %v", e)
	}
}

func TestServiceHistory(t *testing.T) {
	rig := newIMRig(t)
	alice := rig.chatter(t, "alice")
	for i := range 8 {
		if err := alice.Send("s9", "msg-"+string(rune('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	// History is capped at 5 (rig config); newest survive.
	deadline := time.Now().Add(5 * time.Second)
	for {
		h := rig.svc.History("s9", 0)
		if len(h) == 5 && h[4].Body == "msg-h" && h[0].Body == "msg-d" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("history = %+v", h)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Limited query.
	h := rig.svc.History("s9", 2)
	if len(h) != 2 || h[1].Body != "msg-h" {
		t.Fatalf("limited history = %+v", h)
	}
	if got := rig.svc.History("unknown", 10); len(got) != 0 {
		t.Fatalf("phantom history %v", got)
	}
}

func TestPublishChatFromService(t *testing.T) {
	rig := newIMRig(t)
	bob := rig.chatter(t, "bob")
	room, err := bob.JoinRoom(context.Background(), "s3", 0)
	if err != nil {
		t.Fatal(err)
	}
	// This is the path SIP MESSAGEs take (Service implements the SIP
	// gateway's ChatPublisher).
	if err := rig.svc.PublishChat("s3", "sip-user", "hi from sip"); err != nil {
		t.Fatal(err)
	}
	e, err := recvWithin(room, 5*time.Second)
	if err != nil {
		t.Fatal("no delivery")
	}
	m, err := ParseChat(e)
	if err != nil || m.From != "sip-user" {
		t.Fatalf("%+v, %v", m, err)
	}
	if err := rig.svc.PublishChat("", "x", "y"); err == nil {
		t.Fatal("empty session accepted")
	}
}

func TestPresenceTracking(t *testing.T) {
	rig := newIMRig(t)
	alice := rig.chatter(t, "alice")
	// Default: offline.
	if p := rig.svc.PresenceOf("admire", "alice"); p.Status != StatusOffline {
		t.Fatalf("initial presence = %+v", p)
	}
	if err := alice.SetPresence("admire", StatusOnline, "in the lab"); err != nil {
		t.Fatal(err)
	}
	waitPresence(t, rig.svc, "admire", "alice", StatusOnline)
	if err := alice.SetPresence("admire", StatusAway, ""); err != nil {
		t.Fatal(err)
	}
	waitPresence(t, rig.svc, "admire", "alice", StatusAway)
	// Roster sees alice.
	roster := rig.svc.Roster("admire")
	if len(roster) != 1 || roster[0].User != "alice" {
		t.Fatalf("roster = %+v", roster)
	}
	// Unwatched community stays empty.
	if got := rig.svc.Roster("elsewhere"); len(got) != 0 {
		t.Fatalf("phantom roster %v", got)
	}
}

func TestWatchCommunity(t *testing.T) {
	rig := newIMRig(t)
	alice := rig.chatter(t, "alice")
	bob := rig.chatter(t, "bob")
	watch, err := bob.WatchCommunity(context.Background(), "global", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.SetPresence("global", StatusBusy, "call"); err != nil {
		t.Fatal(err)
	}
	e, err := recvWithin(watch, 5*time.Second)
	if err != nil {
		t.Fatal("presence never observed")
	}
	p, err := ParsePresence(e)
	if err != nil || p.User != "alice" || p.Status != StatusBusy {
		t.Fatalf("%+v, %v", p, err)
	}
}

func TestParseRejectsWrongKinds(t *testing.T) {
	if _, err := ParseChat(event.New("/x", event.KindPresence, nil)); err == nil {
		t.Error("chat parse of presence event")
	}
	if _, err := ParsePresence(event.New("/x", event.KindChat, nil)); err == nil {
		t.Error("presence parse of chat event")
	}
	if _, err := ParseChat(event.New("/x", event.KindChat, []byte("<<<"))); err == nil {
		t.Error("garbage chat accepted")
	}
	if _, err := ParsePresence(event.New("/x", event.KindPresence, []byte("<<<"))); err == nil {
		t.Error("garbage presence accepted")
	}
}

func TestNewChatterRequiresUser(t *testing.T) {
	if _, err := NewChatter(nil, ""); err == nil {
		t.Fatal("empty user accepted")
	}
}

func TestChatMessageXMLEscaping(t *testing.T) {
	rig := newIMRig(t)
	alice := rig.chatter(t, "alice")
	bob := rig.chatter(t, "bob")
	room, err := bob.JoinRoom(context.Background(), "s5", 0)
	if err != nil {
		t.Fatal(err)
	}
	const tricky = `<b>bold</b> & "quotes" <chat>`
	if err := alice.Send("s5", tricky); err != nil {
		t.Fatal(err)
	}
	e, err := recvWithin(room, 5*time.Second)
	if err != nil {
		t.Fatal("no delivery")
	}
	m, err := ParseChat(e)
	if err != nil {
		t.Fatal(err)
	}
	if m.Body != tricky {
		t.Fatalf("body = %q, want %q", m.Body, tricky)
	}
	if !strings.Contains(string(e.Payload), "&lt;b&gt;") {
		t.Fatal("markup not escaped on the wire")
	}
}

func waitPresence(t *testing.T, svc *Service, community, user string, want PresenceStatus) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if svc.PresenceOf(community, user).Status == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("presence never became %s", want)
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
