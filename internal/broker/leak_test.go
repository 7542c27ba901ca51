package broker

import (
	"errors"
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
