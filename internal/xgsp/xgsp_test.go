package xgsp

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/clock"
	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

func TestMessageRoundtrip(t *testing.T) {
	m := &Message{
		Seq:  7,
		From: "alice",
		CreateSession: &CreateSession{
			Name:      "grid-seminar",
			Community: "admire",
			Media: []MediaDesc{
				{Type: MediaAudio, Codec: "PCMU", ClockRate: 8000},
				{Type: MediaVideo, Codec: "H261", ClockRate: 90000},
			},
		},
	}
	b, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind() != "create-session" || got.From != "alice" || got.Seq != 7 {
		t.Fatalf("got %+v", got)
	}
	if got.CreateSession.Name != "grid-seminar" || len(got.CreateSession.Media) != 2 {
		t.Fatalf("body %+v", got.CreateSession)
	}
}

func TestMessageValidation(t *testing.T) {
	if _, err := Marshal(&Message{}); err == nil {
		t.Error("empty message accepted")
	}
	two := &Message{
		JoinSession:  &JoinSession{SessionID: "s1", UserID: "u"},
		LeaveSession: &LeaveSession{SessionID: "s1", UserID: "u"},
	}
	if _, err := Marshal(two); err == nil {
		t.Error("two bodies accepted")
	}
}

func TestUnmarshalRejectsBadVersion(t *testing.T) {
	b := []byte(`<xgsp version="9.9"><list-sessions/></xgsp>`)
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("bad version accepted")
	}
	if _, err := Unmarshal([]byte("not xml at all <")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestAllMessageKinds(t *testing.T) {
	msgs := map[string]*Message{
		"create-session":    {CreateSession: &CreateSession{Name: "x"}},
		"terminate-session": {TerminateSession: &TerminateSession{SessionID: "s"}},
		"join-session":      {JoinSession: &JoinSession{SessionID: "s", UserID: "u"}},
		"leave-session":     {LeaveSession: &LeaveSession{SessionID: "s", UserID: "u"}},
		"list-sessions":     {ListSessions: &ListSessions{}},
		"invite-user":       {InviteUser: &InviteUser{SessionID: "s", UserID: "u"}},
		"floor-request":     {FloorRequest: &FloorRequest{SessionID: "s", UserID: "u", Media: MediaAudio}},
		"floor-release":     {FloorRelease: &FloorRelease{SessionID: "s", UserID: "u", Media: MediaAudio}},
		"response":          {Response: &Response{Status: StatusOK}},
		"notify":            {Notify: &Notify{Kind: NotifyJoined, SessionID: "s"}},
	}
	for kind, m := range msgs {
		b, err := Marshal(m)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if got.Kind() != kind {
			t.Fatalf("kind = %q, want %q", got.Kind(), kind)
		}
	}
}

func TestSessionTopics(t *testing.T) {
	if got := SessionTopic("s42", "video"); got != "/xgsp/session/s42/video" {
		t.Fatal(got)
	}
	if got := InboxTopic("alice"); got != "/xgsp/inbox/alice" {
		t.Fatal(got)
	}
}

// testRig wires a broker, session server and n clients.
type testRig struct {
	b      *broker.Broker
	server *Server
	fake   *clock.Fake
}

func newRig(t *testing.T, fake *clock.Fake) *testRig {
	t.Helper()
	b := broker.New(broker.Config{ID: "xgsp-test"})
	t.Cleanup(b.Stop)
	sc, err := b.LocalClient("xgsp-server", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ServerConfig{}
	if fake != nil {
		cfg.Clock = fake
		cfg.schedulerTick = 10 * time.Millisecond
	}
	srv := NewServer(sc, cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return &testRig{b: b, server: srv, fake: fake}
}

func (r *testRig) client(t *testing.T, user string) *Client {
	t.Helper()
	bc, err := r.b.LocalClient("bc-"+user, transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	c, err := NewClient(context.Background(), bc, user)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestCreateJoinLeaveLifecycle(t *testing.T) {
	rig := newRig(t, nil)
	alice := rig.client(t, "alice")
	bob := rig.client(t, "bob")

	info, err := alice.Create(context.Background(), CreateSession{Name: "standup"})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID == "" || !info.Active || info.Creator != "alice" {
		t.Fatalf("info = %+v", info)
	}
	if len(info.Media) != 3 {
		t.Fatalf("default media = %v", info.Media)
	}
	for _, m := range info.Media {
		if !strings.HasPrefix(m.Topic, "/xgsp/session/"+info.ID+"/") {
			t.Fatalf("media topic %q not under session", m.Topic)
		}
	}

	// Bob watches control, then joins.
	watch, err := bob.WatchControl(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := bob.Join(context.Background(), info.ID, "sip:bob@host", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(joined.Members) != 1 || joined.Members[0] != "bob" {
		t.Fatalf("members = %v", joined.Members)
	}
	n := recvNotify(t, watch)
	if n.Kind != NotifyJoined || n.UserID != "bob" {
		t.Fatalf("notify = %+v", n)
	}

	if err := bob.Leave(context.Background(), info.ID); err != nil {
		t.Fatal(err)
	}
	n = recvNotify(t, watch)
	if n.Kind != NotifyLeft || n.UserID != "bob" {
		t.Fatalf("notify = %+v", n)
	}
	if err := bob.Leave(context.Background(), info.ID); err == nil {
		t.Fatal("second leave should fail")
	}
}

func recvNotify(t *testing.T, sub *broker.Subscription) *Notify {
	t.Helper()
	for {
		e, err := recvWithin(sub, 5*time.Second)
		if errors.Is(err, broker.ErrSubscriptionClosed) {
			t.Fatal("control channel closed")
		}
		if err != nil {
			t.Fatal("no notification within 5s")
		}
		n, err := ParseNotify(e)
		if err != nil {
			continue
		}
		return n
	}
}

func TestJoinUnknownSession(t *testing.T) {
	rig := newRig(t, nil)
	alice := rig.client(t, "alice")
	if _, err := alice.Join(context.Background(), "nope", "", nil); err == nil {
		t.Fatal("join of unknown session succeeded")
	}
}

func TestTerminateOnlyByCreator(t *testing.T) {
	rig := newRig(t, nil)
	alice := rig.client(t, "alice")
	mallory := rig.client(t, "mallory")
	info, err := alice.Create(context.Background(), CreateSession{Name: "private"})
	if err != nil {
		t.Fatal(err)
	}
	if err := mallory.Terminate(context.Background(), info.ID, "takeover"); err == nil {
		t.Fatal("non-creator terminated session")
	}
	if err := alice.Terminate(context.Background(), info.ID, "done"); err != nil {
		t.Fatal(err)
	}
	if rig.server.SessionCount() != 0 {
		t.Fatal("session not removed")
	}
}

func TestListSessions(t *testing.T) {
	rig := newRig(t, nil)
	alice := rig.client(t, "alice")
	if _, err := alice.Create(context.Background(), CreateSession{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Create(context.Background(), CreateSession{Name: "b"}); err != nil {
		t.Fatal(err)
	}
	list, err := alice.List(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("list = %v", list)
	}
}

func TestInviteDelivered(t *testing.T) {
	rig := newRig(t, nil)
	alice := rig.client(t, "alice")
	bob := rig.client(t, "bob")
	info, err := alice.Create(context.Background(), CreateSession{Name: "review"})
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Invite(context.Background(), info.ID, "bob", "please join"); err != nil {
		t.Fatal(err)
	}
	select {
	case inv := <-bob.Invites():
		if inv.SessionID != info.ID || inv.Reason != "please join" {
			t.Fatalf("invite = %+v", inv)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("invitation never arrived")
	}
}

func TestFloorControl(t *testing.T) {
	rig := newRig(t, nil)
	alice := rig.client(t, "alice")
	bob := rig.client(t, "bob")
	info, err := alice.Create(context.Background(), CreateSession{Name: "panel"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Join(context.Background(), info.ID, "t1", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Join(context.Background(), info.ID, "t2", nil); err != nil {
		t.Fatal(err)
	}
	// Non-member cannot take the floor.
	carol := rig.client(t, "carol")
	if err := carol.RequestFloor(context.Background(), info.ID, MediaAudio); err == nil {
		t.Fatal("non-member got the floor")
	}
	if err := alice.RequestFloor(context.Background(), info.ID, MediaAudio); err != nil {
		t.Fatal(err)
	}
	// Re-request by holder is idempotent.
	if err := alice.RequestFloor(context.Background(), info.ID, MediaAudio); err != nil {
		t.Fatal(err)
	}
	if err := bob.RequestFloor(context.Background(), info.ID, MediaAudio); err == nil {
		t.Fatal("busy floor granted")
	}
	// Different media floor is independent.
	if err := bob.RequestFloor(context.Background(), info.ID, MediaVideo); err != nil {
		t.Fatal(err)
	}
	// Release by non-holder fails.
	if err := bob.ReleaseFloor(context.Background(), info.ID, MediaAudio); err == nil {
		t.Fatal("non-holder released floor")
	}
	if err := alice.ReleaseFloor(context.Background(), info.ID, MediaAudio); err != nil {
		t.Fatal(err)
	}
	if err := bob.RequestFloor(context.Background(), info.ID, MediaAudio); err != nil {
		t.Fatalf("floor not free after release: %v", err)
	}
}

func TestFloorReleasedOnLeave(t *testing.T) {
	rig := newRig(t, nil)
	alice := rig.client(t, "alice")
	bob := rig.client(t, "bob")
	info, err := alice.Create(context.Background(), CreateSession{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Join(context.Background(), info.ID, "t", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Join(context.Background(), info.ID, "t", nil); err != nil {
		t.Fatal(err)
	}
	if err := alice.RequestFloor(context.Background(), info.ID, MediaAudio); err != nil {
		t.Fatal(err)
	}
	if err := alice.Leave(context.Background(), info.ID); err != nil {
		t.Fatal(err)
	}
	if err := bob.RequestFloor(context.Background(), info.ID, MediaAudio); err != nil {
		t.Fatalf("floor not released when holder left: %v", err)
	}
}

func TestScheduledSessionActivation(t *testing.T) {
	fake := clock.NewFake(time.Date(2003, 6, 1, 9, 0, 0, 0, time.UTC))
	rig := newRig(t, fake)
	alice := rig.client(t, "alice")

	start := fake.Now().Add(time.Hour)
	end := start.Add(time.Hour)
	info, err := alice.Create(context.Background(), CreateSession{
		Name:  "scheduled-seminar",
		Start: FormatTime(start),
		End:   FormatTime(end),
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Active {
		t.Fatal("scheduled session active before start")
	}
	// Joining before activation is refused.
	if _, err := alice.Join(context.Background(), info.ID, "t", nil); err == nil {
		t.Fatal("joined inactive session")
	}
	// Hidden from the default list, visible with includeScheduled.
	list, err := alice.List(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Fatalf("inactive session listed: %v", list)
	}
	list, err = alice.List(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 {
		t.Fatalf("scheduled session missing: %v", list)
	}

	// Advance past start; scheduler should activate.
	fake.Advance(61 * time.Minute)
	waitFor(t, 5*time.Second, func() bool {
		s := rig.server.Lookup(info.ID)
		return s != nil && s.Active
	})
	if _, err := alice.Join(context.Background(), info.ID, "t", nil); err != nil {
		t.Fatalf("join after activation: %v", err)
	}

	// Advance past end; scheduler should terminate.
	fake.Advance(2 * time.Hour)
	waitFor(t, 5*time.Second, func() bool {
		return rig.server.Lookup(info.ID) == nil
	})
}

func TestScheduledSessionBadTimes(t *testing.T) {
	rig := newRig(t, nil)
	alice := rig.client(t, "alice")
	if _, err := alice.Create(context.Background(), CreateSession{Name: "x", Start: "garbage"}); err == nil {
		t.Fatal("bad start accepted")
	}
	now := time.Now()
	if _, err := alice.Create(context.Background(), CreateSession{
		Name:  "x",
		Start: FormatTime(now.Add(time.Hour)),
		End:   FormatTime(now),
	}); err == nil {
		t.Fatal("end before start accepted")
	}
}

func TestCreateRequiresName(t *testing.T) {
	rig := newRig(t, nil)
	alice := rig.client(t, "alice")
	if _, err := alice.Create(context.Background(), CreateSession{}); err == nil {
		t.Fatal("nameless session accepted")
	}
}

func TestConcurrentClientsSeparateSequences(t *testing.T) {
	rig := newRig(t, nil)
	alice := rig.client(t, "alice")
	bob := rig.client(t, "bob")
	done := make(chan error, 2)
	go func() {
		_, err := alice.Create(context.Background(), CreateSession{Name: "a"})
		done <- err
	}()
	go func() {
		_, err := bob.Create(context.Background(), CreateSession{Name: "b"})
		done <- err
	}()
	for range 2 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if rig.server.SessionCount() != 2 {
		t.Fatalf("sessions = %d", rig.server.SessionCount())
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

func TestParseTimeErrors(t *testing.T) {
	if _, err := ParseTime(""); err == nil {
		t.Error("empty time accepted")
	}
	if _, err := ParseTime("not-a-time"); err == nil {
		t.Error("garbage time accepted")
	}
	now := time.Now().Truncate(time.Second)
	got, err := ParseTime(FormatTime(now))
	if err != nil || !got.Equal(now) {
		t.Errorf("roundtrip: %v, %v", got, err)
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
