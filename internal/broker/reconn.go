package broker

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// ResilientConfig parameterises DialResilient.
type ResilientConfig struct {
	// URLs are the broker endpoints, tried round-robin: the initial dial
	// walks them in order, a GOAWAY drain notice rotates to the next one,
	// and redial failures advance past dead brokers.
	URLs []string
	// ID is the client identity (required).
	ID string
	// RedialMin / RedialMax bound the reconnect backoff, which doubles
	// from min to max with jitter — the same ladder mesh peer links use.
	// Defaults 100ms / 5s.
	RedialMin time.Duration
	RedialMax time.Duration
	// Dial overrides the conn factory (fault-injection tests wrap conns
	// here). Default transport.Dial.
	Dial func(url string) (transport.Conn, error)
}

// publishBuffer bounds how many publishes a resilient client buffers
// while its link is down, flushed in order after the reconnect; past it
// a publish fails fast with ErrConnLost.
const publishBuffer = 256

func (cfg ResilientConfig) withDefaults() ResilientConfig {
	if cfg.Dial == nil {
		cfg.Dial = transport.Dial
	}
	return cfg
}

// resilientState is a Client's resilience plane: the redial config, the
// supervisor kick channel, the URL rotation cursor and the outage
// publish buffer.
type resilientState struct {
	cfg  ResilientConfig
	kick chan struct{}

	mu     sync.Mutex
	urlIdx int
	buf    []*event.Event
}

// buffer queues a publish for the post-reconnect flush, reporting false
// when the bound is hit.
func (r *resilientState) buffer(e *event.Event) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) >= publishBuffer {
		return false
	}
	r.buf = append(r.buf, e)
	return true
}

// flush drains the outage buffer onto the (re-established) conn in
// order. Errors are dropped: a conn dying mid-flush re-buffers nothing
// — the events were accepted as best-effort-once the moment they were
// buffered.
func (r *resilientState) flush(c *Client) {
	r.mu.Lock()
	buf := r.buf
	r.buf = nil
	r.mu.Unlock()
	for _, e := range buf {
		if c.send(e) != nil {
			return
		}
	}
}

// advanceURL rotates the redial cursor to the next configured URL.
func (r *resilientState) advanceURL() {
	r.mu.Lock()
	r.urlIdx++
	r.mu.Unlock()
}

// nextURL returns the redial cursor's current URL.
func (r *resilientState) nextURL() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cfg.URLs[r.urlIdx%len(r.cfg.URLs)]
}

// DialResilient connects a client that survives conn loss: a supervised
// redial loop (exponential backoff + jitter over the configured URLs)
// re-establishes the link, presents the session resume token, and — on
// a successful resume — continues exactly where the dead conn left off:
// subscriptions intact, the broker's unacked reliable window replayed
// at original rseqs, replay streams restarted from the last delivered
// record. When the broker refuses the token (linger expired, broker
// restarted, drain) the client transparently rebuilds its subscription
// set on the fresh session instead. Subscription rings survive every
// transition; consumers only observe delivery gaps on the best-effort
// lane.
func DialResilient(cfg ResilientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	if cfg.ID == "" {
		return nil, errors.New("broker: client id must not be empty")
	}
	if len(cfg.URLs) == 0 {
		return nil, errors.New("broker: no broker URLs")
	}
	var conn transport.Conn
	var err error
	idx := 0
	for i, u := range cfg.URLs {
		if conn, err = cfg.Dial(u); err == nil {
			idx = i
			break
		}
	}
	if conn == nil {
		return nil, fmt.Errorf("broker: dialing %d broker(s): %w", len(cfg.URLs), err)
	}
	if err := conn.Send(helloEvent(cfg.ID)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("broker: hello: %w", err)
	}
	c := newClient(cfg.ID, conn)
	c.res = &resilientState{cfg: cfg, kick: make(chan struct{}, 1), urlIdx: idx}
	c.setState(StateConnected)
	c.wg.Add(2)
	go c.readLoop(conn)
	go c.superviseReconnect()
	return c, nil
}

// superviseReconnect is the resilient client's redial supervisor: it
// sleeps until a read loop reports conn loss, then drives redial
// attempts until the link is back or the client closes.
func (c *Client) superviseReconnect() {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			c.teardown()
			return
		case <-c.res.kick:
		}
		select {
		case <-c.done:
			c.teardown()
			return
		default:
		}
		c.redial()
	}
}

// redial re-establishes the conn with mesh-style backoff. A stale kick
// (deposited by a failed attempt's read-loop exit after the link was
// already replaced) finds the conn live and returns immediately.
func (c *Client) redial() {
	c.connMu.RLock()
	live := c.conn != nil
	c.connMu.RUnlock()
	if live {
		return
	}
	bo := newBackoff(c.res.cfg.RedialMin, c.res.cfg.RedialMax)
	for {
		select {
		case <-c.done:
			return
		default:
		}
		conn, err := c.res.cfg.Dial(c.res.nextURL())
		if err == nil {
			if c.resumeOn(conn) {
				return
			}
		} else {
			// Dead endpoint: rotate so the next attempt tries a sibling.
			c.res.advanceURL()
		}
		if !sleep(c.done, bo.next()) {
			return
		}
	}
}

// resumeOn runs the resume handshake over a freshly dialed conn and
// reports whether the client is connected again (also true when the
// client closed mid-handshake — the caller's loop exits on done). The
// conn is installed and its read loop started before the hello reply is
// awaited: the broker's first frames after a successful resume are the
// replayed reliable window, and they must be consumed (and acked) for
// the handshake to make progress at all.
func (c *Client) resumeOn(conn transport.Conn) bool {
	c.connMu.Lock()
	token := c.token
	hello := helloEvent(c.id)
	if token != "" {
		hello = resumeHelloEvent(c.id, token)
	}
	c.connMu.Unlock()
	if err := conn.Send(hello); err != nil {
		conn.Close()
		return false
	}
	var hs chan string
	var lost chan struct{}
	c.connMu.Lock()
	c.conn = conn
	c.lostCh = make(chan struct{})
	lost = c.lostCh
	if token != "" {
		hs = make(chan string, 1)
		c.hsCh = hs
	}
	c.connMu.Unlock()
	c.wg.Add(1)
	go c.readLoop(conn)
	if token == "" {
		// Nothing to resume — and a linger-disabled broker sends no hello
		// reply at all. Rebuild the subscription set immediately.
		c.afterReconnect(false)
		return true
	}
	op, err := awaitReply(context.Background(), c, lost, hs)
	switch err {
	case nil:
		c.afterReconnect(op == opResumed)
		return true
	case ErrClientClosed:
		return true
	case ErrFenceTimeout:
		conn.Close()
	}
	return false
}

// afterReconnect completes a reconnect. On a refused resume the broker
// session is brand new: the reliable receive state resets (nothing
// rseq-tagged can arrive before the resubscribes below, so the reset
// cannot race live traffic) and every live pattern re-registers. In
// both cases replay streams restart from the last delivered record and
// the outage publish buffer flushes.
func (c *Client) afterReconnect(resumed bool) {
	if !resumed {
		c.recv.reset(0)
		patterns := make(map[string]struct{})
		c.mu.Lock()
		for sub := range c.subSet {
			if sub.replay == nil {
				patterns[sub.pattern] = struct{}{}
			}
		}
		c.mu.Unlock()
		for p := range patterns {
			_ = c.send(subEvent(p))
		}
	}
	c.restartReplays()
	c.res.flush(c)
	c.setState(StateConnected)
}

// restartReplays re-issues every live replay stream against the new
// session, starting each just past the last record it delivered.
// Broker-side replay cursors die with the session (resume parks the
// reliable window and subscriptions, not cursors), so this runs on the
// resumed path too; records the salvaged window re-delivers anyway are
// filtered by sequence in handleReplayData.
func (c *Client) restartReplays() {
	c.mu.Lock()
	subs := make([]*Subscription, 0, len(c.replays))
	for _, sub := range c.replays {
		subs = append(subs, sub)
	}
	c.mu.Unlock()
	for _, sub := range subs {
		r := sub.replay
		from := r.from
		if last := r.lastSeq.Load(); last+1 > from {
			from = last + 1
		}
		_ = c.send(replayStartEvent(r.pattern, from, r.id))
	}
}
