// Remote-client tests: everything here imports the public globalmmcs
// package only and runs over real TCP listeners. A dialed Client is
// the same Client a Server hands out in-process; these tests pin that
// it collaborates over the wire and survives cuts, refused resumes and
// drains. An in-test TCP relay stands between client and broker so a
// test can cut the link or refuse redials.
package globalmmcs_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	globalmmcs "github.com/globalmmcs/globalmmcs"
	"github.com/globalmmcs/globalmmcs/internal/testutil"
)

const tcpAny = "tcp://127.0.0.1:0"

func startResilientBroker(t *testing.T, id string) (*globalmmcs.Broker, string) {
	t.Helper()
	b := startBrokerNode(t,
		globalmmcs.WithBrokerID(id),
		globalmmcs.WithSessionLinger(time.Minute),
		globalmmcs.WithBrokerListen(tcpAny),
	)
	return b, b.Addrs()[0]
}

// startTCPNode starts a Server whose broker also listens on loopback
// TCP, for clients to Dial.
func startTCPNode(t *testing.T, opts ...globalmmcs.Option) *globalmmcs.Server {
	t.Helper()
	return startNode(t, append(slices.Clone(bareServices), append(opts, globalmmcs.WithBrokerListen(tcpAny))...)...)
}

// dialUser dials a collaboration client and closes it at cleanup.
func dialUser(t *testing.T, user string, urls ...string) *globalmmcs.Client {
	t.Helper()
	c, err := globalmmcs.Dial(context.Background(), user, urls)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// openSession has an in-process alice create and join a session.
func openSession(t *testing.T, srv *globalmmcs.Server) *globalmmcs.Session {
	t.Helper()
	ctx := context.Background()
	session, err := newClient(t, srv, "alice").CreateSession(ctx, "remote")
	if err != nil {
		t.Fatal(err)
	}
	if err := session.Join(ctx, "alice-desk"); err != nil {
		t.Fatal(err)
	}
	return session
}

// tcpRelay forwards TCP conns to a broker listener. cut closes every
// live conn and keeps accepting, so a client redials through it; close
// refuses redials too.
type tcpRelay struct {
	ln      net.Listener
	target  string
	accepts atomic.Int64
	wg      sync.WaitGroup

	mu     sync.Mutex
	conns  []net.Conn
	closed bool
}

func startRelay(t *testing.T, brokerURL string) *tcpRelay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &tcpRelay{ln: ln, target: strings.TrimPrefix(brokerURL, "tcp://")}
	r.wg.Add(1)
	go r.serve()
	t.Cleanup(r.close)
	return r
}

func (r *tcpRelay) url() string { return "tcp://" + r.ln.Addr().String() }

func (r *tcpRelay) serve() {
	defer r.wg.Done()
	for {
		in, err := r.ln.Accept()
		if err != nil {
			return
		}
		r.accepts.Add(1)
		out, err := net.Dial("tcp", r.target)
		if err != nil {
			in.Close()
			continue
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			in.Close()
			out.Close()
			continue
		}
		r.conns = append(r.conns, in, out)
		r.wg.Add(2)
		r.mu.Unlock()
		go r.pipe(in, out)
		go r.pipe(out, in)
	}
}

func (r *tcpRelay) pipe(dst, src net.Conn) {
	defer r.wg.Done()
	_, _ = io.Copy(dst, src)
	dst.Close()
	src.Close()
}

func (r *tcpRelay) cut() {
	r.mu.Lock()
	conns := r.conns
	r.conns = nil
	r.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (r *tcpRelay) close() {
	r.ln.Close()
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.cut()
	r.wg.Wait()
}

// awaitRedial waits until the client has redialed through the relay
// and is connected again. A redial takes well under a millisecond, so
// polling ConnState for Reconnecting would miss it; the relay's accept
// count does not.
func awaitRedial(t *testing.T, r *tcpRelay, c *globalmmcs.Client) {
	t.Helper()
	waitFor(t, "a redial through the relay", func() bool {
		return r.accepts.Load() >= 2 && c.ConnState() == globalmmcs.StateConnected
	})
}

// awaitRecv calls send every 100 ms until st receives a value that
// match accepts: best-effort events sent while a link is down are lost.
func awaitRecv[T any](t *testing.T, what string, st *globalmmcs.Stream[T], send func() error, match func(T) bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if err := send(); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		for {
			v, err := st.Recv(ctx)
			if errors.Is(err, context.DeadlineExceeded) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if match(v) {
				cancel()
				return
			}
		}
		cancel()
	}
	t.Fatalf("%s never arrived", what)
}

func awaitChat(t *testing.T, from *globalmmcs.Session, room *globalmmcs.ChatRoom, body string) {
	t.Helper()
	awaitRecv(t, "chat "+body, room,
		func() error { return from.Send(context.Background(), body) },
		func(m globalmmcs.ChatMessage) bool { return m.Body == body })
}

func awaitVideo(t *testing.T, pub *globalmmcs.Publisher, st *globalmmcs.MediaSubscription, payload string) {
	t.Helper()
	awaitRecv(t, "video "+payload, st,
		func() error { return pub.Publish([]byte(payload)) },
		func(p *globalmmcs.MediaPacket) bool { return string(p.Payload()) == payload })
}

func recvPayload(t *testing.T, sub *globalmmcs.BrokerSubscription) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	e, err := sub.Recv(ctx)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	return e.Payload
}

// TestDialBrokerRoundtrip: the raw facade client can subscribe and
// publish over TCP, and closing it surfaces the ErrNotConnected
// taxonomy on later calls.
func TestDialBrokerRoundtrip(t *testing.T) {
	_, addr := startResilientBroker(t, "fac-rt")
	ctx := context.Background()

	sub1, err := globalmmcs.DialBroker("fac-sub", []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer sub1.Close()
	pub, err := globalmmcs.DialBroker("fac-pub", []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	sub, err := sub1.Subscribe(ctx, "/fac/*", 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("/fac/a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if got := recvPayload(t, sub); string(got) != "hello" {
		t.Fatalf("payload = %q, want hello", got)
	}

	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("/fac/a", nil); !errors.Is(err, globalmmcs.ErrNotConnected) {
		t.Fatalf("publish after close = %v, want ErrNotConnected", err)
	}
}

// TestEmptyClientID: every client entry point refuses an empty id up
// front with ErrInvalidRequest, leaking nothing.
func TestEmptyClientID(t *testing.T) {
	testutil.CheckGoroutines(t)
	ctx := context.Background()
	srv := startTCPNode(t)
	urls := srv.Broker().Addrs()
	for name, connect := range map[string]func() (io.Closer, error){
		"DialBroker":    func() (io.Closer, error) { return globalmmcs.DialBroker("", urls) },
		"Dial":          func() (io.Closer, error) { return globalmmcs.Dial(ctx, "", urls) },
		"Server.Client": func() (io.Closer, error) { return srv.Client(ctx, "") },
	} {
		c, err := connect()
		if err == nil {
			c.Close()
		}
		if !errors.Is(err, globalmmcs.ErrInvalidRequest) {
			t.Errorf("%s with an empty id = %v, want ErrInvalidRequest", name, err)
		}
	}
}

// TestDialRoundTrip: a dialed client joins a session and receives the
// video and chat an in-process participant publishes; its link state
// reads Connected, and an in-process client's reads Connected too.
func TestDialRoundTrip(t *testing.T) {
	testutil.CheckGoroutines(t)
	ctx := context.Background()
	srv := startTCPNode(t)
	session := openSession(t, srv)

	bob := dialUser(t, "bob", srv.Broker().Addrs()...)
	bobSession, err := bob.Join(ctx, session.ID(), "bob-laptop")
	if err != nil {
		t.Fatal(err)
	}
	video, err := bobSession.Subscribe(ctx, globalmmcs.Video)
	if err != nil {
		t.Fatal(err)
	}
	defer video.Close()
	room, err := bobSession.Chat(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer room.Close()

	pub, err := session.Publisher(globalmmcs.Video)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	awaitVideo(t, pub, video, "frame")
	awaitChat(t, session, room, "hello bob")

	if got := bob.ConnState(); got != globalmmcs.StateConnected {
		t.Fatalf("dialed state = %v, want %v", got, globalmmcs.StateConnected)
	}
	carol := newClient(t, srv, "carol")
	if got := carol.ConnState(); got != globalmmcs.StateConnected {
		t.Fatalf("in-process state = %v, want %v", got, globalmmcs.StateConnected)
	}
	if err := carol.Close(); err != nil {
		t.Fatal(err)
	}
	if got := carol.ConnState(); got != globalmmcs.StateClosed {
		t.Fatalf("in-process state after close = %v, want %v", got, globalmmcs.StateClosed)
	}
}

// TestDialSurvivesCut: a dialed client whose conn is cut redials. With
// a session linger the broker resumes its session; without one the
// resume is refused and the client re-subscribes. Either way its chat
// stream keeps delivering, it is still a participant, and the session
// server still answers it.
func TestDialSurvivesCut(t *testing.T) {
	for name, opts := range map[string][]globalmmcs.Option{
		"resume":      {globalmmcs.WithSessionLinger(time.Minute)},
		"resubscribe": nil,
	} {
		t.Run(name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			ctx := context.Background()
			srv := startTCPNode(t, opts...)
			session := openSession(t, srv)
			relay := startRelay(t, srv.Broker().Addrs()[0])

			bob := dialUser(t, "bob", relay.url())
			bobSession, err := bob.Join(ctx, session.ID(), "bob-laptop")
			if err != nil {
				t.Fatal(err)
			}
			room, err := bobSession.Chat(ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer room.Close()
			awaitChat(t, session, room, "before the cut")

			relay.cut()
			awaitRedial(t, relay, bob)
			awaitChat(t, session, room, "after the cut")

			if err := bobSession.Refresh(ctx); err != nil {
				t.Fatal(err)
			}
			if !slices.ContainsFunc(bobSession.Participants(), func(p globalmmcs.Participant) bool {
				return p.UserID == "bob"
			}) {
				t.Fatalf("bob left the session across the cut: %+v", bobSession.Participants())
			}
			if _, err := bob.Sessions(ctx); err != nil {
				t.Fatalf("sessions after the cut: %v", err)
			}
		})
	}
}

// TestDialReplayAcrossCut: a replaying event stream on a dialed client
// delivers the recorded history and the live events after it exactly
// once and in order, although its conn is cut halfway through.
func TestDialReplayAcrossCut(t *testing.T) {
	testutil.CheckGoroutines(t)
	ctx := context.Background()
	// A fresh node's first session is s1, the recorded pattern.
	srv := startTCPNode(t, globalmmcs.WithRecording(t.TempDir(), "/xgsp/session/s1/#"))
	session := openSession(t, srv)
	if session.ID() != "s1" {
		t.Fatalf("session ID = %q, want s1", session.ID())
	}
	room, err := session.Chat(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer room.Close()
	const history, live = 20, 20
	for i := range history {
		if err := session.Send(ctx, fmt.Sprintf("msg-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Events are recorded before they are delivered: once alice's room
	// has them all, the log does too.
	for i := range history {
		rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		_, err := room.Recv(rctx)
		cancel()
		if err != nil {
			t.Fatalf("history message %d never arrived: %v", i, err)
		}
	}

	relay := startRelay(t, srv.Broker().Addrs()[0])
	bob := dialUser(t, "bob", relay.url())
	bobSession, err := bob.Join(ctx, session.ID(), "bob-laptop")
	if err != nil {
		t.Fatal(err)
	}
	events, err := bobSession.Events(ctx, globalmmcs.WithReplayFromEarliest())
	if err != nil {
		t.Fatal(err)
	}
	defer events.Close()
	// nextChat returns the sequence number of the next chat event, or
	// -1 if none arrives within d.
	nextChat := func(d time.Duration) int {
		rctx, cancel := context.WithTimeout(ctx, d)
		defer cancel()
		for {
			e, err := events.Recv(rctx)
			if errors.Is(err, context.DeadlineExceeded) {
				return -1
			}
			if err != nil {
				t.Fatal(err)
			}
			if e.Kind != "chat" {
				continue
			}
			body := string(e.Payload)
			i := strings.Index(body, "msg-")
			if i < 0 || len(body) < i+7 {
				t.Fatalf("chat event %q carries no sequence", body)
			}
			seq, err := strconv.Atoi(body[i+4 : i+7])
			if err != nil {
				t.Fatal(err)
			}
			return seq
		}
	}
	var got []int
	take := func(n int) {
		for len(got) < n {
			seq := nextChat(5 * time.Second)
			if seq < 0 {
				t.Fatalf("received %d of %d chat events: %v", len(got), n, got)
			}
			got = append(got, seq)
		}
	}
	take(history / 2)
	relay.cut()
	awaitRedial(t, relay, bob)
	for i := history; i < history+live; i++ {
		if err := session.Send(ctx, fmt.Sprintf("msg-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	take(history + live)
	if seq := nextChat(200 * time.Millisecond); seq >= 0 {
		t.Fatalf("chat event %d delivered twice", seq)
	}
	for i, seq := range got {
		if seq != i {
			t.Fatalf("chat sequence %v, want 0..%d once each", got, history+live-1)
		}
	}
}

// TestDialBrokerConnLost: a dialed client whose brokers are all
// unreachable fails calls with the transient ErrConnLost; after Close
// they fail with the terminal ErrNotConnected.
func TestDialBrokerConnLost(t *testing.T) {
	testutil.CheckGoroutines(t)
	ctx := context.Background()
	srv := startTCPNode(t)
	relay := startRelay(t, srv.Broker().Addrs()[0])
	bob := dialUser(t, "bob", relay.url())
	session, err := bob.CreateSession(ctx, "outage")
	if err != nil {
		t.Fatal(err)
	}

	relay.close()
	waitFor(t, "the client to see the outage", func() bool {
		return bob.ConnState() == globalmmcs.StateReconnecting
	})
	if _, err := session.Subscribe(ctx, globalmmcs.Video); !errors.Is(err, globalmmcs.ErrConnLost) {
		t.Fatalf("subscribe during outage = %v, want ErrConnLost", err)
	}

	if err := bob.Close(); err != nil {
		t.Fatal(err)
	}
	if got := bob.ConnState(); got != globalmmcs.StateClosed {
		t.Fatalf("state after close = %v, want StateClosed", got)
	}
	if _, err := session.Subscribe(ctx, globalmmcs.Video); !errors.Is(err, globalmmcs.ErrNotConnected) {
		t.Fatalf("subscribe after close = %v, want ErrNotConnected", err)
	}
	if _, err := bob.Sessions(ctx); !errors.Is(err, globalmmcs.ErrNotConnected) {
		t.Fatalf("sessions after close = %v, want ErrNotConnected", err)
	}
}

// TestDialBrokerDrainFailover: a dialed client given two URLs moves to
// the second node when the first drains, and its video stream keeps
// receiving. The first node is a standalone broker meshed with the
// Server, so the client reaches the session server from either.
func TestDialBrokerDrainFailover(t *testing.T) {
	testutil.CheckGoroutines(t)
	ctx := context.Background()
	edge, edgeAddr := startResilientBroker(t, "edge")
	srv := startTCPNode(t, globalmmcs.WithPeers(edgeAddr))
	waitFor(t, "the server's link to the edge", func() bool {
		links := srv.Broker().PeerLinks()
		return len(links) == 1 && links[0].State == "up"
	})
	session := openSession(t, srv)

	bob := dialUser(t, "bob", edgeAddr, srv.Broker().Addrs()[0])
	if edge.SessionCount() < 2 {
		t.Fatalf("client not on the edge (edge sessions=%d)", edge.SessionCount())
	}
	// bob's inbox subscription reaches the server over the mesh
	// asynchronously: retry until the session server's reply gets back.
	var bobSession *globalmmcs.Session
	waitFor(t, "the session server to answer over the mesh", func() bool {
		rctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
		defer cancel()
		s, err := bob.Session(rctx, session.ID())
		bobSession = s
		return err == nil
	})
	video, err := bobSession.Subscribe(ctx, globalmmcs.Video)
	if err != nil {
		t.Fatal(err)
	}
	defer video.Close()
	pub, err := session.Publisher(globalmmcs.Video)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	awaitVideo(t, pub, video, "pre-drain")

	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := edge.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	waitFor(t, "the client to leave the edge", func() bool { return edge.SessionCount() < 2 })
	awaitVideo(t, pub, video, "post-drain")
	if _, err := bob.Sessions(ctx); err != nil {
		t.Fatalf("sessions after failover: %v", err)
	}
}
