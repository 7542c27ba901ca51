package broker

import (
	"fmt"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// rawClient is a hand-driven wire client for resume-handshake tests:
// it speaks the hello/resume protocol directly so tests control exactly
// what is acked and when the conn dies.
type rawClient struct {
	t    *testing.T
	conn transport.Conn
}

func rawAttach(t *testing.T, b *Broker, hello *event.Event) *rawClient {
	t.Helper()
	client, server := transport.Pipe(b.ID(), "raw-client")
	go b.AcceptConn(server)
	if err := client.Send(hello); err != nil {
		t.Fatal(err)
	}
	return &rawClient{t: t, conn: client}
}

// recv returns the next event within a bounded wait.
func (rc *rawClient) recv() *event.Event {
	rc.t.Helper()
	type res struct {
		e   *event.Event
		err error
	}
	ch := make(chan res, 1)
	go func() {
		e, err := rc.conn.Recv()
		ch <- res{e, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			rc.t.Fatalf("raw recv: %v", r.err)
		}
		return r.e
	case <-time.After(5 * time.Second):
		rc.t.Fatal("raw recv: timeout")
		return nil
	}
}

// welcome waits for the hello reply and returns (op, token).
func (rc *rawClient) welcome() (string, string) {
	rc.t.Helper()
	for {
		e := rc.recv()
		if e.Topic == topicHello {
			return e.Headers[hdrOp], e.Headers[hdrToken]
		}
	}
}

// recvData collects n rseq-tagged events on topic, returning them in
// arrival order without acking.
func (rc *rawClient) recvData(topic string, n int) []*event.Event {
	rc.t.Helper()
	var got []*event.Event
	for len(got) < n {
		e := rc.recv()
		if e.Topic != topic {
			continue
		}
		if e.RSeq == 0 {
			rc.t.Fatalf("event on %s not rseq-tagged: %v", topic, e)
		}
		got = append(got, e)
	}
	return got
}

func newResumeBroker(t *testing.T, id string, linger time.Duration) *Broker {
	t.Helper()
	return newTestBrokerCfg(t, Config{
		ID:            id,
		SessionLinger: linger,
		// Long enough that retransmission never fires mid-test: every
		// redelivery observed is the resume salvage, not the timer.
		retransmitInterval: time.Minute,
	})
}

// TestResumeWindowSalvage: events unacked when the conn dies replay on
// the resumed session under their ORIGINAL rseqs, in order, before any
// fresh traffic.
func TestResumeWindowSalvage(t *testing.T) {
	b := newResumeBroker(t, "salvage", 5*time.Second)
	rc := rawAttach(t, b, helloEvent("rs-sub"))
	op, token := rc.welcome()
	if op != opWelcome || token == "" {
		t.Fatalf("welcome op=%q token=%q, want opWelcome with token", op, token)
	}
	if err := rc.conn.Send(subEvent("/rs/t")); err != nil {
		t.Fatal(err)
	}
	waitCondition(t, 5*time.Second, "subscribed", func() bool {
		return len(b.matchSessions("/rs/t")) > 0
	})

	pub := localClient(t, b, "rs-pub")
	const n = 5
	for i := range n {
		if err := pub.PublishReliable("/rs/t", event.KindControl, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Receive all five but never ack, then pull the cable: the whole
	// window parks as unacked.
	first := rc.recvData("/rs/t", n)
	rc.conn.Close()
	waitCondition(t, 5*time.Second, "session parked", func() bool {
		return b.parkedCount() == 1
	})

	rc2 := rawAttach(t, b, resumeHelloEvent("rs-sub", token))
	replayed := rc2.recvData("/rs/t", n)
	for i, e := range replayed {
		rseq, origRSeq := e.RSeq, first[i].RSeq
		if rseq != origRSeq {
			t.Fatalf("replayed event %d: rseq %d, want original %d", i, rseq, origRSeq)
		}
		if e.Payload[0] != byte(i) {
			t.Fatalf("replayed event %d: payload %d, want %d", i, e.Payload[0], i)
		}
	}
	op2, token2 := rc2.welcome()
	if op2 != opResumed {
		t.Fatalf("resume welcome op=%q, want opResumed", op2)
	}
	// The token names the session lineage and survives the resume: a
	// client whose next conn dies before this welcome arrives must still
	// hold a valid credential.
	if token2 != token {
		t.Fatalf("resume rotated the token (%q -> %q), want it stable", token, token2)
	}
	// The consumed park is gone and the rseq stream continues past the
	// salvaged window: ack everything, publish one more, expect rseq n+1.
	if b.parkedCount() != 0 {
		t.Fatalf("parkedCount = %d after resume, want 0", b.parkedCount())
	}
	if err := rc2.conn.Send(ackEvent(uint64(n))); err != nil {
		t.Fatal(err)
	}
	if err := pub.PublishReliable("/rs/t", event.KindControl, []byte{99}); err != nil {
		t.Fatal(err)
	}
	next := rc2.recvData("/rs/t", 1)[0]
	if rseq := next.RSeq; rseq != n+1 {
		t.Fatalf("post-resume rseq %d, want %d", rseq, n+1)
	}
	rc2.conn.Close()
}

// TestResumeLingerExpiry: a token presented after the linger window is
// refused — the park is purged and the client gets a fresh, empty
// session.
func TestResumeLingerExpiry(t *testing.T) {
	b := newResumeBroker(t, "expiry", 50*time.Millisecond)
	rc := rawAttach(t, b, helloEvent("exp-c"))
	_, token := rc.welcome()
	if err := rc.conn.Send(subEvent("/exp/t")); err != nil {
		t.Fatal(err)
	}
	waitCondition(t, 5*time.Second, "subscribed", func() bool {
		return len(b.matchSessions("/exp/t")) > 0
	})
	rc.conn.Close()
	waitCondition(t, 5*time.Second, "parked", func() bool {
		return b.parkedCount() == 1
	})
	time.Sleep(200 * time.Millisecond) // linger expires

	rc2 := rawAttach(t, b, resumeHelloEvent("exp-c", token))
	op, token2 := rc2.welcome()
	if op != opRejected {
		t.Fatalf("expired resume op=%q, want opRejected", op)
	}
	if token2 == "" || token2 == token {
		t.Fatalf("rejected resume still mints a fresh token (got %q)", token2)
	}
	// The fresh session carries nothing over: the old subscription is
	// gone and the expired park was purged.
	if n := len(b.matchSessions("/exp/t")); n != 0 {
		t.Fatalf("%d sessions still subscribed after refused resume, want 0", n)
	}
	if b.parkedCount() != 0 {
		t.Fatalf("parkedCount = %d, want 0", b.parkedCount())
	}
	rc2.conn.Close()
}

// TestResumeStaleToken: a token the broker never minted — or one minted
// for a DIFFERENT client id — is refused without consuming the real
// owner's park, which must still resume afterwards.
func TestResumeStaleToken(t *testing.T) {
	b := newResumeBroker(t, "stale", 5*time.Second)
	rc := rawAttach(t, b, helloEvent("owner"))
	_, token := rc.welcome()
	rc.conn.Close()
	waitCondition(t, 5*time.Second, "parked", func() bool {
		return b.parkedCount() == 1
	})

	// Unknown token.
	bogus := rawAttach(t, b, resumeHelloEvent("someone", "no-such-token"))
	if op, _ := bogus.welcome(); op != opRejected {
		t.Fatalf("bogus-token resume op=%q, want opRejected", op)
	}
	bogus.conn.Close()
	// Right token, wrong id: refused, and the owner's park survives.
	thief := rawAttach(t, b, resumeHelloEvent("mallory", token))
	if op, _ := thief.welcome(); op != opRejected {
		t.Fatalf("wrong-id resume op=%q, want opRejected", op)
	}
	thief.conn.Close()

	// Neither refusal consumed the owner's park: the genuine resume
	// still finds it.
	owner := rawAttach(t, b, resumeHelloEvent("owner", token))
	if op, _ := owner.welcome(); op != opResumed {
		t.Fatalf("owner resume op=%q, want opResumed", op)
	}
	owner.conn.Close()
}

// TestDoubleResumeRace: when two conns present credentials for the same
// client, the newest conn wins — the earlier session is superseded and
// its conn closed.
func TestDoubleResumeRace(t *testing.T) {
	b := newResumeBroker(t, "double", 5*time.Second)
	rc := rawAttach(t, b, helloEvent("dr-c"))
	_, token := rc.welcome()
	rc.conn.Close()
	waitCondition(t, 5*time.Second, "parked", func() bool {
		return b.parkedCount() == 1
	})

	winner1 := rawAttach(t, b, resumeHelloEvent("dr-c", token))
	if op, _ := winner1.welcome(); op != opResumed {
		t.Fatalf("first resume op=%q, want opResumed", op)
	}
	// Second resume with the same token: the newest conn takes the
	// session over — winner1 is force-parked and the park re-consumed.
	winner2 := rawAttach(t, b, resumeHelloEvent("dr-c", token))
	if op, _ := winner2.welcome(); op != opResumed {
		t.Fatalf("second resume op=%q, want opResumed (takeover)", op)
	}
	// winner1's conn is closed by the supersede.
	waitCondition(t, 5*time.Second, "superseded conn closed", func() bool {
		_, err := winner1.conn.Recv()
		return err != nil
	})
	if n := b.SessionCount(); n != 1 {
		t.Fatalf("SessionCount = %d after supersede, want 1", n)
	}
	winner2.conn.Close()
}

// TestParkedSessionBound: the parked-session store is bounded; at
// capacity the oldest park is evicted, never the broker's memory grown.
func TestParkedSessionBound(t *testing.T) {
	b := newTestBrokerCfg(t, Config{
		ID:                "bound",
		SessionLinger:     time.Minute,
		maxParkedSessions: 2,
	})
	const clients = 5
	for i := range clients {
		c, err := b.LocalClient(fmt.Sprintf("bound-%d", i), transport.LinkProfile{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Subscribe(fmt.Sprintf("/bound/%d", i), 8); err != nil {
			t.Fatal(err)
		}
		c.Close()
		waitCondition(t, 5*time.Second, "detached", func() bool {
			return b.SessionCount() == 0
		})
	}
	if n := b.parkedCount(); n != 2 {
		t.Fatalf("parkedCount = %d after %d disconnects, want capacity 2", n, clients)
	}
}

// TestParkedSessionPruned: the housekeeping sweep reclaims expired
// parks even when no resume ever arrives for them.
func TestParkedSessionPruned(t *testing.T) {
	b := newTestBrokerCfg(t, Config{
		ID:                 "prunep",
		SessionLinger:      300 * time.Millisecond,
		advRefreshInterval: 50 * time.Millisecond, // housekeeping cadence
	})
	c, err := b.LocalClient("prunep-c", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	waitCondition(t, 5*time.Second, "parked", func() bool {
		return b.parkedCount() == 1
	})
	waitCondition(t, 5*time.Second, "pruned", func() bool {
		return b.parkedCount() == 0
	})
}
