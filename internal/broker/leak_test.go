package broker

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/testutil"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// The leak suite pins the close paths the resilience plane leans on:
// every goroutine a broker, client, subscription, mesh link or
// reconnect supervisor spawns must exit when its owner does.
// testutil.CheckGoroutines is registered FIRST so (cleanups being LIFO)
// it runs after the brokers registered below have stopped.

func TestClientCloseNoLeak(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := newTestBrokerCfg(t, Config{ID: "leak-cc", SessionLinger: time.Minute})
	for i := range 5 {
		c, err := b.LocalClient("leak-c", transport.LinkProfile{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Subscribe("/leak/t", 8); err != nil {
			t.Fatal(err)
		}
		if err := c.Publish("/leak/t", event.KindData, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSubscriptionChurnNoLeak(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := newTestBroker(t, "leak-sub")
	c := localClient(t, b, "leak-sub-c")
	for i := range 20 {
		sub, err := c.Subscribe("/leak/churn", 8)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := sub.Cancel(); err != nil {
				t.Fatal(err)
			}
		} else if err := c.Unsubscribe(sub); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMeshLinkChurnNoLeak(t *testing.T) {
	testutil.CheckGoroutines(t)
	b1 := newTestBroker(t, "leak-m1")
	b2 := newTestBroker(t, "leak-m2")
	l, err := b2.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mesh := NewMesh(b1, fastMeshConfig(l.Addr()))
	waitCondition(t, 10*time.Second, "link up", func() bool {
		return b1.PeerCount() == 1 && b2.PeerCount() == 1
	})
	mesh.SetPeers(nil) // churn the link down...
	waitCondition(t, 10*time.Second, "link torn down", func() bool {
		return b1.PeerCount() == 0
	})
	mesh.SetPeers([]string{l.Addr()}) // ...and back up
	waitCondition(t, 10*time.Second, "link re-established", func() bool {
		return b1.PeerCount() == 1
	})
	mesh.Stop()
}

// TestPrivatePoolChurnNoLeak: a session whose conn blocks its sender
// (SendCost link emulation) is drained by a private writer pool, and
// closing the client with traffic in flight must stop that pool with
// the session — the broker, created before the baseline, keeps running
// through the check.
func TestPrivatePoolChurnNoLeak(t *testing.T) {
	b := newTestBroker(t, "leak-pp")
	pub := localClient(t, b, "leak-pp-pub")
	testutil.CheckGoroutines(t)
	payload := make([]byte, 256)
	for i := range 20 {
		id := fmt.Sprintf("leak-pp-%d", i)
		c, err := b.LocalClient(id, transport.LinkProfile{SendCost: 20 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		sub, err := c.Subscribe("/leak/pp", 8)
		if err != nil {
			t.Fatal(err)
		}
		b.mu.RLock()
		s := b.ids[id]
		b.mu.RUnlock()
		if s == nil || !s.ownPool {
			t.Fatalf("session %s is not drained by a private writer pool", id)
		}
		for range 64 {
			if err := pub.Publish("/leak/pp", event.KindRTP, payload); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err = sub.RecvBatchContext(ctx, nil, 1)
		cancel()
		if err != nil {
			t.Fatalf("client %d received nothing: %v", i, err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReconnectLoopNoLeak(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := newTestBrokerCfg(t, Config{ID: "leak-rc", SessionLinger: time.Minute})
	seam := newSeam()
	seam.set("u1", b)
	c, err := DialResilient(ResilientConfig{
		URLs:      []string{"u1"},
		ID:        "leak-rc-c",
		RedialMin: 5 * time.Millisecond,
		RedialMax: 20 * time.Millisecond,
		Dial:      seam.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("/leak/rc", 8); err != nil {
		t.Fatal(err)
	}
	// Bounce the link a few times: each bounce spawns a new read loop
	// whose predecessor must have fully exited.
	for range 3 {
		before := seam.dialCount()
		seam.killCurrent()
		waitCondition(t, 10*time.Second, "reconnected", func() bool {
			return seam.dialCount() > before && c.ConnState() == StateConnected
		})
	}
	// Close mid-outage too: the supervisor must exit from the backoff
	// sleep, not just from the idle select.
	seam.set("u1", nil)
	seam.killCurrent()
	waitCondition(t, 10*time.Second, "reconnecting", func() bool {
		return c.ConnState() == StateReconnecting
	})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSilentConnHandshakeDeadline: a remote that connects and never
// says hello is closed when the handshake deadline passes, and the
// goroutine that was waiting on it exits.
func TestSilentConnHandshakeDeadline(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := newTestBroker(t, "leak-hs")
	b.handshakeTimeout = 50 * time.Millisecond
	l, err := b.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", strings.TrimPrefix(l.Addr(), "tcp://"))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := nc.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if n, err := nc.Read(make([]byte, 1)); n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("read on a conn that never said hello: n=%d err=%v, want the broker to have closed it", n, err)
	}
	if n := b.SessionCount(); n != 0 {
		t.Fatalf("%d sessions attached for a conn that never said hello", n)
	}
}

// silentPeer listens on loopback and accepts one conn, which it reads
// from but never answers: a peer broker that hangs after accept.
func silentPeer(t *testing.T) (url string, accepted <-chan net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan net.Conn, 1)
	go func() {
		defer ln.Close()
		if nc, err := ln.Accept(); err == nil {
			ch <- nc
		}
	}()
	return "tcp://" + ln.Addr().String(), ch
}

// awaitHello waits for the dialer's peer hello to arrive, so the dialer
// is past its send and waiting for the reply.
func awaitHello(t *testing.T, accepted <-chan net.Conn) net.Conn {
	t.Helper()
	var nc net.Conn
	select {
	case nc = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("the dialer never connected")
	}
	t.Cleanup(func() { nc.Close() })
	if err := nc.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Read(make([]byte, 1)); err != nil {
		t.Fatalf("no peer hello from the dialer: %v", err)
	}
	return nc
}

// TestMeshStopWithSilentPeer: a mesh link whose peer accepts and never
// replies is stuck in its dial's handshake; Mesh.Stop must close that
// dial and return, not wait out the peer.
func TestMeshStopWithSilentPeer(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := newTestBroker(t, "leak-mesh-silent")
	url, accepted := silentPeer(t)
	m := NewMesh(b, MeshConfig{Peers: []string{url}})
	awaitHello(t, accepted)
	stopped := make(chan struct{})
	go func() {
		m.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("Mesh.Stop hung on a peer that never replied")
	}
}

// TestConnectPeerSilentDeadline: the dialer side of the peer handshake
// gives up on a silent peer once the handshake deadline passes.
func TestConnectPeerSilentDeadline(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := newTestBroker(t, "leak-peer-silent")
	b.handshakeTimeout = 50 * time.Millisecond
	url, accepted := silentPeer(t)
	done := make(chan error, 1)
	go func() {
		conn, err := transport.Dial(url)
		if err != nil {
			done <- err
			return
		}
		done <- b.ConnectPeerConn(conn)
	}()
	awaitHello(t, accepted)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("linked to a peer that never replied")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ConnectPeerConn waited past the handshake deadline")
	}
}
