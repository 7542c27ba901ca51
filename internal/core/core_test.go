package core

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/accessgrid"
	"github.com/globalmmcs/globalmmcs/internal/admire"
	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/im"
	"github.com/globalmmcs/globalmmcs/internal/media"
	"github.com/globalmmcs/globalmmcs/internal/rtp"
	"github.com/globalmmcs/globalmmcs/internal/streaming"
	"github.com/globalmmcs/globalmmcs/internal/wsci"
	"github.com/globalmmcs/globalmmcs/internal/xgsp"
)

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := Start(context.Background(), cfg)
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
	s := startServer(t, Config{})
	if s.SIP == nil || s.Gatekeeper == nil || s.H323Gateway == nil || s.RTSP == nil || s.IM == nil {
		t.Fatal("subsystems missing")
	}
	// Stop is idempotent.
	s.Stop()
	s.Stop()
}

func TestServerWithSubsystemsDisabled(t *testing.T) {
	s := startServer(t, Config{DisableSIP: true, DisableH323: true, DisableRTSP: true, DisableIM: true})
	if s.SIP != nil || s.Gatekeeper != nil || s.RTSP != nil || s.IM != nil {
		t.Fatal("disabled subsystem started")
	}
	// The core still works: create and join a session.
	alice, err := s.Client(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	info, err := alice.CreateSession(context.Background(), "bare")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Join(context.Background(), info.ID, "term"); err != nil {
		t.Fatal(err)
	}
}

func TestClientConferenceWithMediaAndChat(t *testing.T) {
	s := startServer(t, Config{})
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

	info, err := alice.CreateSession(context.Background(), "team-sync")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Join(context.Background(), info.ID, "alice-desktop"); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Join(context.Background(), info.ID, "bob-laptop"); err != nil {
		t.Fatal(err)
	}

	// Media: alice sends 10 audio packets; bob receives them.
	bobAudio, err := bob.SubscribeMedia(context.Background(), info, xgsp.MediaAudio, 64)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := alice.MediaSender(info, xgsp.MediaAudio)
	if err != nil {
		t.Fatal(err)
	}
	src := media.NewAudioSource(media.AudioConfig{FrameMillis: 5})
	if _, err := sender.SendAudio(src, 10, nil); err != nil {
		t.Fatal(err)
	}
	got := 0
	deadline := time.Now().Add(5 * time.Second)
	for got < 10 {
		e, err := recvWithin(bobAudio, time.Until(deadline))
		if err != nil {
			t.Fatalf("bob received %d/10 packets", got)
		}
		var p rtp.Packet
		if err := p.Unmarshal(e.Payload); err != nil {
			t.Fatal(err)
		}
		got++
	}

	// Chat: bob talks, alice listens, the IM service records history.
	aliceRoom, err := alice.Chat.JoinRoom(context.Background(), info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := bob.Chat.Send(info.ID, "are we on?"); err != nil {
		t.Fatal(err)
	}
	e, err := recvWithin(aliceRoom, 5*time.Second)
	if err != nil {
		t.Fatal("chat not delivered")
	}
	m, err := im.ParseChat(e)
	if err != nil || m.From != "bob" {
		t.Fatalf("%+v, %v", m, err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return len(s.IM.History(info.ID, 10)) == 1
	})
}

func TestWebServerSOAPRoundtrip(t *testing.T) {
	s := startServer(t, Config{})
	client := wsci.NewClient(s.WebAddr() + "/ws")

	var created WSSessionResponse
	if err := client.Call(&WSCreateSession{Creator: "portal-user", Name: "web-session"}, &created); err != nil {
		t.Fatal(err)
	}
	if created.ID == "" || !created.Active {
		t.Fatalf("created = %+v", created)
	}
	var list WSListSessionsResponse
	if err := client.Call(&WSListSessions{}, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 1 || list.Sessions[0].Name != "web-session" {
		t.Fatalf("list = %+v", list)
	}
	var ok WSOKResponse
	if err := client.Call(&WSAddUser{ID: "web-user", Name: "Web User", Community: "global"}, &ok); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Directory.User("web-user"); err != nil {
		t.Fatal(err)
	}
	if err := client.Call(&WSRegisterCommunity{Name: "hearme", Kind: "voip", Endpoint: "http://hearme/ws"}, &ok); err != nil {
		t.Fatal(err)
	}
	if _, found := s.Communities.Lookup("hearme"); !found {
		t.Fatal("community not registered")
	}
}

func TestAdmireLinkOverWeb(t *testing.T) {
	s := startServer(t, Config{})
	// An Admire community somewhere on the network.
	adm := admire.NewServer()
	t.Cleanup(adm.Stop)
	ts := httptest.NewServer(adm.WebService())
	t.Cleanup(ts.Close)
	conf, err := adm.CreateConference("joint")
	if err != nil {
		t.Fatal(err)
	}

	alice, err := s.Client(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	info, err := alice.CreateSession(context.Background(), "admire-linked")
	if err != nil {
		t.Fatal(err)
	}

	client := wsci.NewClient(s.WebAddr() + "/ws")
	var ok WSOKResponse
	if err := client.Call(&WSLinkAdmire{
		SessionID: info.ID, Conference: conf.ID, Endpoint: ts.URL,
	}, &ok); err != nil {
		t.Fatal(err)
	}

	// Media crosses the bridge: Admire member → MMCS subscriber.
	member, err := adm.Join(conf.ID, "remote")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := alice.SubscribeMedia(context.Background(), info, xgsp.MediaAudio, 64)
	if err != nil {
		t.Fatal(err)
	}
	src := media.NewAudioSource(media.AudioConfig{})
	raw, err := src.NextPacket().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	member.Send(raw)
	e, err := recvWithin(sub, 5*time.Second)
	if err != nil {
		t.Fatal("admire media never crossed the bridge")
	}
	if e.Kind != event.KindRTP {
		t.Fatalf("kind = %v", e.Kind)
	}
}

func TestAccessGridLink(t *testing.T) {
	s := startServer(t, Config{})
	vs := accessgrid.NewVenueServer()
	t.Cleanup(vs.Stop)
	if _, err := vs.CreateVenue("plenary"); err != nil {
		t.Fatal(err)
	}
	alice, err := s.Client(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	info, err := alice.CreateSession(context.Background(), "ag-linked")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LinkAccessGrid(context.Background(), info.ID, vs, "plenary"); err != nil {
		t.Fatal(err)
	}
	agUser, err := vs.Enter("plenary", "ag-user")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := alice.SubscribeMedia(context.Background(), info, xgsp.MediaVideo, 64)
	if err != nil {
		t.Fatal(err)
	}
	v := media.NewVideoSource(media.VideoConfig{})
	raw, err := v.NextFrame()[0].Marshal()
	if err != nil {
		t.Fatal(err)
	}
	agUser.Video.Send(raw)
	if _, err := recvWithin(sub, 5*time.Second); err != nil {
		t.Fatal("AG media never crossed the bridge")
	}
}

func TestEndToEndSIPPlusRTSP(t *testing.T) {
	// The paper's headline integration: a session fed by one community,
	// consumed by a player via RTSP.
	s := startServer(t, Config{})
	alice, err := s.Client(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	info, err := alice.CreateSession(context.Background(), "integrated")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Join(context.Background(), info.ID, "alice-term"); err != nil {
		t.Fatal(err)
	}

	player, err := streaming.DialPlayer(s.RTSP.URL(info.ID))
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

	sender, err := alice.MediaSender(info, xgsp.MediaAudio)
	if err != nil {
		t.Fatal(err)
	}
	src := media.NewAudioSource(media.AudioConfig{FrameMillis: 5})
	if _, err := sender.SendAudio(src, 50, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return track.Received() >= 20 })
}

func TestLinkAdmireUnknownSession(t *testing.T) {
	s := startServer(t, Config{})
	if _, err := s.LinkAdmire(context.Background(), "s404", "adm-1", "http://nowhere/ws"); err == nil {
		t.Fatal("link of unknown session succeeded")
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
