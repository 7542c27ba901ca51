// Black-box tests of the public SDK: everything here goes through the
// globalmmcs package only, proving the facade is complete enough to
// build real integrations without reaching into internal packages.
package globalmmcs_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs"
)

// syncBuffer is a bytes.Buffer safe to poll from the test while a
// recorder goroutine writes to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) Read(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Read(p)
}

func (s *syncBuffer) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Len()
}

func startNode(t *testing.T, opts ...globalmmcs.Option) *globalmmcs.Server {
	t.Helper()
	srv, err := globalmmcs.Start(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	return srv
}

func newClient(t *testing.T, srv *globalmmcs.Server, user string) *globalmmcs.Client {
	t.Helper()
	c, err := srv.Client(context.Background(), user)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestPublicLifecycle drives the full start → client → session → chat →
// media → stop flow through the public API.
func TestPublicLifecycle(t *testing.T) {
	ctx := context.Background()
	srv := startNode(t)

	alice := newClient(t, srv, "alice")
	bob := newClient(t, srv, "bob")

	session, err := alice.CreateSession(ctx, "standup")
	if err != nil {
		t.Fatal(err)
	}
	if session.Name() != "standup" {
		t.Fatalf("name = %q", session.Name())
	}
	if err := session.Join(ctx, "alice-desktop"); err != nil {
		t.Fatal(err)
	}
	bobSession, err := bob.Join(ctx, session.ID(), "bob-laptop")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(bobSession.Participants()); got != 2 {
		t.Fatalf("participants = %d, want 2", got)
	}

	// Chat both ways.
	room, err := bobSession.Chat(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer room.Close()
	if err := session.Send(ctx, "hello bob"); err != nil {
		t.Fatal(err)
	}
	msgCtx, cancelMsg := context.WithTimeout(ctx, 5*time.Second)
	msg, err := room.Recv(msgCtx)
	cancelMsg()
	if err != nil {
		t.Fatalf("chat never arrived: %v", err)
	}
	if msg.From != "alice" || msg.Body != "hello bob" || msg.SessionID != session.ID() {
		t.Fatalf("msg = %+v", msg)
	}
	if msg.At.IsZero() {
		t.Fatal("msg.At is zero")
	}

	// The server-side IM service recorded the room history.
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.ChatHistory(session.ID(), 10)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("chat history never recorded")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Media: alice sends audio, bob receives and measures.
	sub, err := bobSession.Subscribe(ctx, globalmmcs.Audio, globalmmcs.WithBuffer(64))
	if err != nil {
		t.Fatal(err)
	}
	sender, err := session.Sender(globalmmcs.Audio)
	if err != nil {
		t.Fatal(err)
	}
	src := globalmmcs.NewAudioSource(globalmmcs.AudioConfig{FrameMillis: 5})
	sent, err := sender.SendAudio(ctx, src, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sent != 10 {
		t.Fatalf("sent = %d", sent)
	}
	recv := globalmmcs.NewMediaReceiver(globalmmcs.Audio)
	got := 0
	mediaCtx, cancelMedia := context.WithTimeout(ctx, 5*time.Second)
	for got < 10 {
		p, err := sub.Recv(mediaCtx)
		if err != nil {
			t.Fatalf("received %d/10 packets: %v", got, err)
		}
		recv.Handle(p)
		rtp, err := p.RTP()
		if err != nil {
			t.Fatal(err)
		}
		if rtp.SSRC == 0 {
			t.Fatal("rtp ssrc missing")
		}
		got++
	}
	cancelMedia()
	if stats := recv.Stats(); stats.Received != 10 || stats.Lost != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}

	// Presence round trip.
	watch, err := bob.WatchPresence(ctx, "global")
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Close()
	if err := alice.SetPresence(ctx, "global", globalmmcs.StatusBusy, "in standup"); err != nil {
		t.Fatal(err)
	}
	presCtx, cancelPres := context.WithTimeout(ctx, 5*time.Second)
	p, err := watch.Recv(presCtx)
	cancelPres()
	if err != nil {
		t.Fatalf("presence never arrived: %v", err)
	}
	if p.User != "alice" || p.Status != globalmmcs.StatusBusy {
		t.Fatalf("presence = %+v", p)
	}

	// Server-side lookup sees the same session.
	details, ok := srv.SessionInfo(session.ID())
	if !ok || details.Name != "standup" || len(details.Media) == 0 {
		t.Fatalf("details = %+v, %v", details, ok)
	}

	// Leave and terminate.
	if err := bobSession.Leave(ctx); err != nil {
		t.Fatal(err)
	}
	if err := session.Terminate(ctx, "done"); err != nil {
		t.Fatal(err)
	}
}

// TestSentinelErrors asserts each public sentinel is matchable with
// errors.Is from outside the module.
func TestSentinelErrors(t *testing.T) {
	ctx := context.Background()
	srv := startNode(t)
	alice := newClient(t, srv, "alice")
	bob := newClient(t, srv, "bob")

	// ErrSessionNotFound.
	if _, err := alice.Join(ctx, "no-such-session", "t"); !errors.Is(err, globalmmcs.ErrSessionNotFound) {
		t.Fatalf("join unknown: %v", err)
	}
	if _, err := alice.Session(ctx, "no-such-session"); !errors.Is(err, globalmmcs.ErrSessionNotFound) {
		t.Fatalf("lookup unknown: %v", err)
	}

	// ErrInvalidRequest: a session must have a name.
	if _, err := alice.CreateSession(ctx, ""); !errors.Is(err, globalmmcs.ErrInvalidRequest) {
		t.Fatalf("create unnamed: %v", err)
	}

	session, err := alice.CreateSession(ctx, "errors")
	if err != nil {
		t.Fatal(err)
	}
	if err := session.Join(ctx, "t1"); err != nil {
		t.Fatal(err)
	}
	bobSession, err := bob.Join(ctx, session.ID(), "t2")
	if err != nil {
		t.Fatal(err)
	}

	// ErrPermissionDenied: only the creator terminates.
	if err := bobSession.Terminate(ctx, "takeover"); !errors.Is(err, globalmmcs.ErrPermissionDenied) {
		t.Fatalf("foreign terminate: %v", err)
	}

	// ErrFloorBusy: alice holds the audio floor, bob is refused.
	if err := session.RequestFloor(ctx, globalmmcs.Audio); err != nil {
		t.Fatal(err)
	}
	if err := bobSession.RequestFloor(ctx, globalmmcs.Audio); !errors.Is(err, globalmmcs.ErrFloorBusy) {
		t.Fatalf("busy floor: %v", err)
	}

	// ErrConflict: releasing a floor bob does not hold.
	if err := bobSession.ReleaseFloor(ctx, globalmmcs.Audio); !errors.Is(err, globalmmcs.ErrConflict) {
		t.Fatalf("foreign release: %v", err)
	}

	// ErrNotParticipant: leaving twice — the session still exists, so
	// this must not read as ErrSessionNotFound.
	if err := bobSession.Leave(ctx); err != nil {
		t.Fatal(err)
	}
	err = bobSession.Leave(ctx)
	if !errors.Is(err, globalmmcs.ErrNotParticipant) {
		t.Fatalf("double leave: %v", err)
	}
	if errors.Is(err, globalmmcs.ErrSessionNotFound) {
		t.Fatalf("double leave conflated with unknown session: %v", err)
	}

	// ErrNoSuchMedia: the default session carries no control media
	// channel.
	if _, err := session.Sender(globalmmcs.Control); !errors.Is(err, globalmmcs.ErrNoSuchMedia) {
		t.Fatalf("no-such-media: %v", err)
	}

	// ErrSessionNotActive: scheduled sessions refuse joins before start.
	scheduled, err := alice.CreateSession(ctx, "tomorrow",
		globalmmcs.WithSchedule(time.Now().Add(time.Hour), time.Now().Add(2*time.Hour)))
	if err != nil {
		t.Fatal(err)
	}
	if err := scheduled.Join(ctx, "t"); !errors.Is(err, globalmmcs.ErrSessionNotActive) {
		t.Fatalf("early join: %v", err)
	}

	// ErrTimeout: an expired deadline surfaces as both ErrTimeout and
	// context.DeadlineExceeded.
	expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	_, err = alice.Join(expired, session.ID(), "t")
	if !errors.Is(err, globalmmcs.ErrTimeout) {
		t.Fatalf("expired join not ErrTimeout: %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired join lost DeadlineExceeded: %v", err)
	}

	// ErrNotConnected: operations on a closed client.
	carol := newClient(t, srv, "carol")
	if err := carol.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := carol.CreateSession(ctx, "ghost"); !errors.Is(err, globalmmcs.ErrNotConnected) {
		t.Fatalf("closed client: %v", err)
	}
}

// TestServerStopped asserts ErrServerStopped after Stop.
func TestServerStopped(t *testing.T) {
	ctx := context.Background()
	srv := startNode(t)
	srv.Stop()
	if _, err := srv.Client(ctx, "late"); !errors.Is(err, globalmmcs.ErrServerStopped) {
		t.Fatalf("client after stop: %v", err)
	}
}

// TestFunctionalOptions asserts the Without* options disable subsystems
// and the node still collaborates.
func TestFunctionalOptions(t *testing.T) {
	ctx := context.Background()
	srv := startNode(t,
		globalmmcs.WithoutSIP(),
		globalmmcs.WithoutH323(),
		globalmmcs.WithoutRTSP(),
		globalmmcs.WithDomain("test.local"),
	)
	if srv.SIPAddr() != "" || srv.GatekeeperAddr() != "" || srv.RTSPAddr() != "" {
		t.Fatal("disabled subsystem advertises an address")
	}
	if srv.StreamURL("s1") != "" {
		t.Fatal("stream URL without RTSP")
	}
	alice := newClient(t, srv, "alice")
	session, err := alice.CreateSession(ctx, "lean")
	if err != nil {
		t.Fatal(err)
	}
	if err := session.Join(ctx, "t"); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsOption asserts WithMetrics receives server counters.
func TestMetricsOption(t *testing.T) {
	m := globalmmcs.NewMetrics()
	srv := startNode(t, globalmmcs.WithMetrics(m))
	alice := newClient(t, srv, "alice")
	if _, err := alice.CreateSession(context.Background(), "counted"); err != nil {
		t.Fatal(err)
	}
	if m.Report() == "" {
		t.Fatal("metrics report empty")
	}
}

// TestArchiveRoundTrip records a burst of media and replays it into a
// second session — all through the public API.
func TestArchiveRoundTrip(t *testing.T) {
	ctx := context.Background()
	srv := startNode(t)
	alice := newClient(t, srv, "alice")

	session, err := alice.CreateSession(ctx, "lecture")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := session.Subscribe(ctx, globalmmcs.Audio, globalmmcs.WithBuffer(256))
	if err != nil {
		t.Fatal(err)
	}
	var buf syncBuffer
	var arch globalmmcs.Archive
	recCtx, stopRec := context.WithCancel(ctx)
	recorded := make(chan int, 1)
	go func() {
		n, _ := arch.Record(recCtx, &buf, sub)
		recorded <- n
	}()

	sender, err := session.Sender(globalmmcs.Audio)
	if err != nil {
		t.Fatal(err)
	}
	src := globalmmcs.NewAudioSource(globalmmcs.AudioConfig{FrameMillis: 5})
	if _, err := sender.SendAudio(ctx, src, 10); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for buf.Len() < 10*4 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	stopRec()
	if n := <-recorded; n != 10 {
		t.Fatalf("recorded %d/10", n)
	}

	replay, err := alice.CreateSession(ctx, "lecture-replay")
	if err != nil {
		t.Fatal(err)
	}
	replaySub, err := replay.Subscribe(ctx, globalmmcs.Audio, globalmmcs.WithBuffer(256))
	if err != nil {
		t.Fatal(err)
	}
	n, err := arch.Replay(ctx, &buf, replay, globalmmcs.Audio, false)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("replayed %d/10", n)
	}
	got := 0
	replayCtx, cancelReplay := context.WithTimeout(ctx, 5*time.Second)
	defer cancelReplay()
	for got < n {
		if _, err := replaySub.Recv(replayCtx); err != nil {
			t.Fatalf("late subscriber got %d/%d: %v", got, n, err)
		}
		got++
	}
}

// TestSessionEventsReplay drives the durable topic log through the
// public API: a node records a session's topics, a late joiner opens
// Events with WithReplayFromEarliest and sees the chat history it
// missed, then live traffic, exactly once across the handoff.
func TestSessionEventsReplay(t *testing.T) {
	ctx := context.Background()
	// Session IDs are assigned "s1", "s2", ... per node, so a fresh
	// node's first session lands on the recorded pattern.
	srv := startNode(t, globalmmcs.WithRecording(t.TempDir(), "/xgsp/session/s1/#"))
	alice := newClient(t, srv, "alice")

	session, err := alice.CreateSession(ctx, "recorded-standup")
	if err != nil {
		t.Fatal(err)
	}
	if session.ID() != "s1" {
		t.Fatalf("session ID = %q, want s1", session.ID())
	}
	if err := session.Join(ctx, "alice-desktop"); err != nil {
		t.Fatal(err)
	}

	// Alice chats before bob exists. Her own room confirms delivery —
	// events are recorded before they are delivered, so once the room
	// has a message the log has it too.
	room, err := session.Chat(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer room.Close()
	const history = 20
	for i := 0; i < history; i++ {
		if err := session.Send(ctx, fmt.Sprintf("msg-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	seenCtx, cancelSeen := context.WithTimeout(ctx, 5*time.Second)
	for i := 0; i < history; i++ {
		if _, err := room.Recv(seenCtx); err != nil {
			t.Fatalf("history message %d never arrived: %v", i, err)
		}
	}
	cancelSeen()

	// Bob joins late and replays from the earliest retained event.
	bob := newClient(t, srv, "bob")
	bobSession, err := bob.Join(ctx, session.ID(), "bob-laptop")
	if err != nil {
		t.Fatal(err)
	}
	events, err := bobSession.Events(ctx, globalmmcs.WithReplayFromEarliest())
	if err != nil {
		t.Fatal(err)
	}
	defer events.Close()

	recvChat := func(within time.Duration) (string, error) {
		recvCtx, cancel := context.WithTimeout(ctx, within)
		defer cancel()
		for {
			e, err := events.Recv(recvCtx)
			if err != nil {
				return "", err
			}
			if e.Kind == "chat" {
				return string(e.Payload), nil
			}
		}
	}
	var got []string
	for len(got) < history {
		body, err := recvChat(5 * time.Second)
		if err != nil {
			t.Fatalf("replayed %d/%d chat events: %v", len(got), history, err)
		}
		got = append(got, body)
	}
	select {
	case <-events.CaughtUp():
	case <-time.After(5 * time.Second):
		t.Fatal("replay never caught up to live")
	}
	if err := session.Send(ctx, "live-after-catchup"); err != nil {
		t.Fatal(err)
	}
	body, err := recvChat(5 * time.Second)
	if err != nil {
		t.Fatalf("live event after catch-up: %v", err)
	}
	got = append(got, body)

	// History arrived in order and exactly once, then the live event.
	for i := 0; i < history; i++ {
		if want := fmt.Sprintf("msg-%d", i); !strings.Contains(got[i], want) {
			t.Fatalf("event %d = %q, want %q", i, got[i], want)
		}
	}
	if !strings.Contains(got[history], "live-after-catchup") {
		t.Fatalf("post-catchup event = %q", got[history])
	}

	// A pattern the node does not record is refused.
	if _, err := bobSession.Subscribe(ctx, globalmmcs.Audio, globalmmcs.WithReplayFromEarliest()); err == nil {
		t.Fatal("replay on an unrecorded pattern must fail")
	}
}

// TestBrokerBatchingOptions checks the new broker tuning surface: a
// server started with batching options comes up healthy, and a
// standalone broker takes the same options.
func TestBrokerBatchingOptions(t *testing.T) {
	srv := startNode(t,
		globalmmcs.WithBrokerBatching(64<<10, 2*time.Millisecond),
	)
	if err := srv.WaitReady(context.Background()); err != nil {
		t.Fatal(err)
	}
	b := startBrokerNode(t,
		globalmmcs.WithBrokerID("tuned"),
		globalmmcs.WithBrokerBatching(32<<10, time.Millisecond),
		globalmmcs.WithBrokerListen("tcp://127.0.0.1:0"),
	)
	if addrs := b.Addrs(); len(addrs) != 1 {
		t.Fatalf("addrs = %v, want one bound listener", addrs)
	}
}
