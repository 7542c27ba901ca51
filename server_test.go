package globalmmcs

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/clock"
	"github.com/globalmmcs/globalmmcs/internal/directory"
	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/media"
	"github.com/globalmmcs/globalmmcs/internal/testutil"
	"github.com/globalmmcs/globalmmcs/internal/wsci"
	"github.com/globalmmcs/globalmmcs/internal/xgsp"
)

// Node assembly tests: every service of the paper's Figure 2 started,
// wired and stopped by one Server, reached through the SDK types and,
// where the check is on a service's own state, through the Server's
// fields.

var bareNode = []Option{WithoutSIP(), WithoutH323(), WithoutRTSP(), WithoutIM()}

func startServer(t *testing.T, opts ...Option) *Server {
	t.Helper()
	s, err := Start(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFullServerStartStop(t *testing.T) {
	s := startServer(t)
	if s.sip == nil || s.gatekeeper == nil || s.h323Gateway == nil || s.rtsp == nil || s.im == nil {
		t.Fatal("subsystems missing")
	}
	// Stop is idempotent.
	s.Stop()
	s.Stop()
}

func TestServerWithSubsystemsDisabled(t *testing.T) {
	s := startServer(t, bareNode...)
	if s.sip != nil || s.gatekeeper != nil || s.rtsp != nil || s.im != nil {
		t.Fatal("disabled subsystem started")
	}
	// The core still works: create and join a session.
	alice, err := s.Client(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	session, err := alice.CreateSession(context.Background(), "bare")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Join(context.Background(), session.ID(), "term"); err != nil {
		t.Fatal(err)
	}
}

func TestClientConferenceWithMediaAndChat(t *testing.T) {
	s := startServer(t)
	alice, err := s.Client(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	bob, err := s.Client(context.Background(), "bob")
	if err != nil {
		t.Fatal(err)
	}
	defer bob.Close()

	created, err := alice.CreateSession(context.Background(), "team-sync")
	if err != nil {
		t.Fatal(err)
	}
	aliceSession, err := alice.Join(context.Background(), created.ID(), "alice-desktop")
	if err != nil {
		t.Fatal(err)
	}
	bobSession, err := bob.Join(context.Background(), created.ID(), "bob-laptop")
	if err != nil {
		t.Fatal(err)
	}

	// Media: alice sends 10 audio packets; bob receives them.
	bobAudio, err := bobSession.Subscribe(context.Background(), Audio, WithBuffer(64))
	if err != nil {
		t.Fatal(err)
	}
	defer bobAudio.Close()
	sender, err := aliceSession.Sender(Audio)
	if err != nil {
		t.Fatal(err)
	}
	src := NewAudioSource(AudioConfig{FrameMillis: 5})
	if _, err := sender.SendAudio(context.Background(), src, 10); err != nil {
		t.Fatal(err)
	}
	got := 0
	deadline := time.Now().Add(5 * time.Second)
	for got < 10 {
		p, err := recvWithin(bobAudio, time.Until(deadline))
		if err != nil {
			t.Fatalf("bob received %d/10 packets", got)
		}
		if _, err := p.RTP(); err != nil {
			t.Fatal(err)
		}
		got++
	}

	// Chat: bob talks, alice listens, the IM service records history.
	aliceRoom, err := aliceSession.Chat(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer aliceRoom.Close()
	if err := bobSession.Send(context.Background(), "are we on?"); err != nil {
		t.Fatal(err)
	}
	m, err := recvWithin(aliceRoom, 5*time.Second)
	if err != nil {
		t.Fatal("chat not delivered")
	}
	if m.From != "bob" {
		t.Fatalf("%+v", m)
	}
	waitFor(t, 5*time.Second, func() bool {
		return len(s.ChatHistory(created.ID(), 10)) == 1
	})
}

func TestWebServerSOAPRoundtrip(t *testing.T) {
	s := startServer(t)
	client := wsci.NewClient(s.WebAddr() + "/ws")

	var created wsSessionResponse
	if err := client.Call(&wsCreateSession{Creator: "portal-user", Name: "web-session"}, &created); err != nil {
		t.Fatal(err)
	}
	if created.ID == "" || !created.Active {
		t.Fatalf("created = %+v", created)
	}
	var list wsListSessionsResponse
	if err := client.Call(&wsListSessions{}, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 1 || list.Sessions[0].Name != "web-session" {
		t.Fatalf("list = %+v", list)
	}
	var ok wsOKResponse
	if err := client.Call(&wsAddUser{ID: "web-user", Name: "Web User", Community: "global"}, &ok); err != nil {
		t.Fatal(err)
	}
	if _, err := s.directory.User("web-user"); err != nil {
		t.Fatal(err)
	}
	if err := client.Call(&wsRegisterCommunity{Name: "hearme", Kind: "voip", Endpoint: "http://hearme/ws"}, &ok); err != nil {
		t.Fatal(err)
	}
	if _, found := s.communities.Lookup("hearme"); !found {
		t.Fatal("community not registered")
	}
}

func TestAdmireLinkOverWeb(t *testing.T) {
	s := startServer(t)
	// An Admire community somewhere on the network.
	adm, err := StartAdmireCommunity()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(adm.Stop)
	confID, err := adm.CreateConference(context.Background(), "joint")
	if err != nil {
		t.Fatal(err)
	}

	alice, err := s.Client(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	session, err := alice.CreateSession(context.Background(), "admire-linked")
	if err != nil {
		t.Fatal(err)
	}

	client := wsci.NewClient(s.WebAddr() + "/ws")
	var ok wsOKResponse
	if err := client.Call(&wsLinkAdmire{
		SessionID: session.ID(), Conference: confID, Endpoint: adm.Endpoint(),
	}, &ok); err != nil {
		t.Fatal(err)
	}

	// Media crosses the bridge: Admire member → MMCS subscriber.
	member, err := adm.Join(confID, "remote")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := session.Subscribe(context.Background(), Audio, WithBuffer(64))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	raw, err := NewAudioSource(AudioConfig{}).NextPacket()
	if err != nil {
		t.Fatal(err)
	}
	member.Send(raw)
	p, err := recvWithin(sub, 5*time.Second)
	if err != nil {
		t.Fatal("admire media never crossed the bridge")
	}
	if p.e.Kind != event.KindRTP {
		t.Fatalf("kind = %v", p.e.Kind)
	}
}

func TestAccessGridLink(t *testing.T) {
	s := startServer(t)
	vs := NewVenueServer()
	t.Cleanup(vs.Stop)
	if err := vs.CreateVenue("plenary"); err != nil {
		t.Fatal(err)
	}
	alice, err := s.Client(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	session, err := alice.CreateSession(context.Background(), "ag-linked")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LinkAccessGrid(context.Background(), session.ID(), vs, "plenary"); err != nil {
		t.Fatal(err)
	}
	agUser, err := vs.Enter("plenary", "ag-user")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := session.Subscribe(context.Background(), Video, WithBuffer(64))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	v := media.NewVideoSource(media.VideoConfig{})
	raw, err := v.NextFrame()[0].Marshal()
	if err != nil {
		t.Fatal(err)
	}
	agUser.SendVideo(raw)
	if _, err := recvWithin(sub, 5*time.Second); err != nil {
		t.Fatal("AG media never crossed the bridge")
	}
}

func TestEndToEndSIPPlusRTSP(t *testing.T) {
	// The paper's headline integration: a session fed by one community,
	// consumed by a player via RTSP.
	s := startServer(t)
	alice, err := s.Client(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	created, err := alice.CreateSession(context.Background(), "integrated")
	if err != nil {
		t.Fatal(err)
	}
	session, err := alice.Join(context.Background(), created.ID(), "alice-term")
	if err != nil {
		t.Fatal(err)
	}

	player, err := DialPlayer(s.StreamURL(session.ID()))
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()
	tracks, err := player.Describe()
	if err != nil {
		t.Fatal(err)
	}
	track, err := player.Setup("audio", tracks["audio"])
	if err != nil {
		t.Fatal(err)
	}
	if err := player.Play(); err != nil {
		t.Fatal(err)
	}

	sender, err := session.Sender(Audio)
	if err != nil {
		t.Fatal(err)
	}
	src := NewAudioSource(AudioConfig{FrameMillis: 5})
	if _, err := sender.SendAudio(context.Background(), src, 50); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return track.Received() >= 20 })
}

func TestLinkAdmireUnknownSession(t *testing.T) {
	s := startServer(t)
	if err := s.LinkAdmire(context.Background(), "s404", "adm-1", "http://nowhere/ws"); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("link of unknown session = %v, want ErrSessionNotFound", err)
	}
}

// TestLinkAccessGridRacesStop links bridges while the server stops.
// Each link either lands before Stop takes its snapshot, and Stop
// closes it, or fails; once stopped, a link is refused with
// ErrServerStopped. Nothing a link started may outlive Stop.
func TestLinkAccessGridRacesStop(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := startServer(t, bareNode...)
	vs := NewVenueServer()
	t.Cleanup(vs.Stop)
	if err := vs.CreateVenue("plenary"); err != nil {
		t.Fatal(err)
	}
	alice, err := s.Client(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	const links = 8
	ids := make([]string, links)
	for i := range ids {
		session, err := alice.CreateSession(context.Background(), fmt.Sprintf("ag-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = session.ID()
	}

	errs := make(chan error, links)
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- s.LinkAccessGrid(context.Background(), id, vs, "plenary")
		}()
	}
	// Stop once the first link returns, while the others are in flight.
	// Those may land or fail (their broker client closing under them
	// reads as ErrNotConnected or ErrConnLost); the goroutine fence is
	// what checks that Stop closed every one that landed.
	if err := <-errs; err != nil {
		t.Fatalf("link before Stop = %v", err)
	}
	s.Stop()
	wg.Wait()
	if err := s.LinkAccessGrid(context.Background(), ids[0], vs, "plenary"); !errors.Is(err, ErrServerStopped) {
		t.Fatalf("link after Stop = %v, want ErrServerStopped", err)
	}
}

// TestClientHonorsCancelledContext asserts attaching a client fails
// fast under a cancelled context.
func TestClientHonorsCancelledContext(t *testing.T) {
	s := startServer(t, bareNode...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Client(ctx, "alice"); !errors.Is(err, context.Canceled) {
		t.Fatalf("client = %v, want context.Canceled", err)
	}
}

// TestClientAfterStop asserts ErrServerStopped after Stop.
func TestClientAfterStop(t *testing.T) {
	s := startServer(t, bareNode...)
	s.Stop()
	if _, err := s.Client(context.Background(), "late"); !errors.Is(err, ErrServerStopped) {
		t.Fatalf("client after stop = %v, want ErrServerStopped", err)
	}
}

// TestWaitReadyHonorsCancellation asserts WaitReady returns on context
// expiry.
func TestWaitReadyHonorsCancellation(t *testing.T) {
	s := startServer(t, bareNode...)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	// The server is up, so a live WaitReady succeeds even with a short
	// deadline...
	if err := s.WaitReady(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wait ready = %v", err)
	}
	// ...and a cancelled context fails fast.
	done, cancelDone := context.WithCancel(context.Background())
	cancelDone()
	if err := s.WaitReady(done); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait ready = %v", err)
	}
}

// TestRegistrationsPopulateDirectory verifies the user↔terminal binding
// flow of §2.2: registering with the SIP registrar or the H.323
// gatekeeper records the endpoint as the user's active media terminal.
func TestRegistrationsPopulateDirectory(t *testing.T) {
	s := startServer(t)

	// SIP registration.
	sipEP, err := DialSIPEndpoint("wenjun", s.SIPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer sipEP.Close()
	if err := sipEP.Register(s.SIPDomain(), time.Hour); err != nil {
		t.Fatal(err)
	}
	term, err := s.directory.Terminal("sip:wenjun")
	if err != nil {
		t.Fatal(err)
	}
	if term.Kind != directory.TerminalSIP || term.UserID != "wenjun" || !term.Active {
		t.Fatalf("terminal = %+v", term)
	}
	first := term.Address
	user, err := s.directory.User("wenjun")
	if err != nil || user.Community != "sip" {
		t.Fatalf("user = %+v, %v", user, err)
	}

	// H.323 registration.
	h323EP, err := DialH323Endpoint("auyar", s.GatekeeperAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer h323EP.Close()
	if err := h323EP.Discover(); err != nil {
		t.Fatal(err)
	}
	if err := h323EP.Register(); err != nil {
		t.Fatal(err)
	}
	term, err = s.directory.Terminal("h323:auyar")
	if err != nil {
		t.Fatal(err)
	}
	if term.Kind != directory.TerminalH323 || term.UserID != "auyar" || !term.Active {
		t.Fatalf("terminal = %+v", term)
	}
	if _, _, err := net.SplitHostPort(term.Address); err != nil {
		t.Fatalf("terminal address %q not host:port", term.Address)
	}

	// A user registering from a second device moves the active binding.
	sipEP2, err := DialSIPEndpoint("wenjun", s.SIPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer sipEP2.Close()
	if err := sipEP2.Register(s.SIPDomain(), time.Hour); err != nil {
		t.Fatal(err)
	}
	term, err = s.directory.Terminal("sip:wenjun")
	if err != nil {
		t.Fatal(err)
	}
	if !term.Active || term.Address == first {
		t.Fatalf("terminal = %+v, want the active binding moved off %s", term, first)
	}
}

// TestScheduledMeetingOverWeb exercises the paper's "scheduled mode":
// reserve a meeting through the web portal, confirm it is inaccessible
// until its start time, then watch the scheduler activate it.
func TestScheduledMeetingOverWeb(t *testing.T) {
	fake := clock.NewFake(time.Date(2003, 9, 1, 8, 0, 0, 0, time.UTC))
	s := startServer(t, WithClock(fake))
	client := wsci.NewClient(s.WebAddr() + "/ws")

	start := fake.Now().Add(30 * time.Minute)
	end := start.Add(time.Hour)
	var created wsSessionResponse
	if err := client.Call(&wsCreateSession{
		Creator: "organizer",
		Name:    "scheduled-demo",
		Start:   xgsp.FormatTime(start),
		End:     xgsp.FormatTime(end),
	}, &created); err != nil {
		t.Fatal(err)
	}
	if created.Active {
		t.Fatal("scheduled session active before start")
	}

	// Not listed among active sessions...
	var list wsListSessionsResponse
	if err := client.Call(&wsListSessions{}, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 0 {
		t.Fatalf("inactive session listed: %+v", list)
	}
	// ...but visible with the scheduled flag.
	if err := client.Call(&wsListSessions{IncludeScheduled: true}, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 1 || list.Sessions[0].Active {
		t.Fatalf("scheduled listing wrong: %+v", list)
	}

	// Joining before activation is refused.
	alice, err := s.Client(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	if _, err := alice.Join(context.Background(), created.ID, "t"); err == nil {
		t.Fatal("joined a session that has not started")
	}

	// The meeting time arrives.
	fake.Advance(31 * time.Minute)
	waitFor(t, 5*time.Second, func() bool {
		info, ok := s.SessionInfo(created.ID)
		return ok && info.Active
	})
	if _, err := alice.Join(context.Background(), created.ID, "t"); err != nil {
		t.Fatalf("join after activation: %v", err)
	}

	// And ends on schedule.
	fake.Advance(2 * time.Hour)
	waitFor(t, 5*time.Second, func() bool {
		_, ok := s.SessionInfo(created.ID)
		return !ok
	})
}

// TestHybridAdHocAndScheduled runs both collaboration patterns side by
// side, the paper's "hybrid collaboration pattern".
func TestHybridAdHocAndScheduled(t *testing.T) {
	fake := clock.NewFake(time.Date(2003, 9, 1, 8, 0, 0, 0, time.UTC))
	s := startServer(t, WithClock(fake))
	alice, err := s.Client(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()

	adhoc, err := alice.CreateSession(context.Background(), "hallway-chat")
	if err != nil {
		t.Fatal(err)
	}
	if !adhoc.Details().Active {
		t.Fatal("ad-hoc session must activate immediately")
	}
	scheduled, err := alice.CreateSession(context.Background(), "board-meeting",
		WithSchedule(fake.Now().Add(time.Hour), fake.Now().Add(2*time.Hour)))
	if err != nil {
		t.Fatal(err)
	}
	if scheduled.Details().Active {
		t.Fatal("scheduled session active early")
	}
	// Both coexist; the ad-hoc one is usable now.
	if _, err := alice.Join(context.Background(), adhoc.ID(), "t"); err != nil {
		t.Fatal(err)
	}
	list, err := alice.Sessions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("list = %+v", list)
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

// recvWithin receives one item from st, waiting at most d.
func recvWithin[T any](st *Stream[T], d time.Duration) (T, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return st.Recv(ctx)
}
