package broker

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// MeshConfig parameterises a broker's federation mesh: the declarative
// peer set. The zero value is usable; NewMesh fills defaults. The
// unexported supervision timings are fixed in production and exist only
// so this package's tests can shrink them.
type MeshConfig struct {
	// Peers is the initial set of peer broker URLs to maintain links to.
	Peers []string
	// heartbeatInterval is how often an idle supervised link is probed
	// with a peer-hello heartbeat. Default 1s.
	heartbeatInterval time.Duration
	// redialMin / redialMax bound the exponential redial backoff after a
	// link drops. Default 100ms / 5s (see newBackoff).
	redialMin, redialMax time.Duration
}

// heartbeatMiss is how many silent heartbeat intervals mark a link
// partitioned (any inbound traffic counts as liveness, not just heartbeat
// replies).
const heartbeatMiss = 3

func (c MeshConfig) withDefaults() MeshConfig {
	if c.heartbeatInterval <= 0 {
		c.heartbeatInterval = time.Second
	}
	return c
}

// Link supervision states, as reported by Mesh.Links.
const (
	LinkDialing = "dialing"
	LinkUp      = "up"
	LinkBackoff = "backoff"
	LinkStandby = "standby" // yielded to the canonical link the peer dialed
	LinkStopped = "stopped"
)

// LinkStatus is one supervised link's externally visible state.
type LinkStatus struct {
	// URL is the configured peer address.
	URL string
	// RemoteID is the peer broker's identity, once learned ("" before the
	// first successful handshake).
	RemoteID string
	// State is one of the Link* constants.
	State string
	// Redials counts dial attempts after the first (both retries while a
	// peer is unreachable and re-establishments after a drop).
	Redials uint64
}

// Mesh supervises a broker's peer links: it owns mesh membership as a
// declarative set of peer URLs and runs one supervisor goroutine per
// link, dialing, detecting partitions via heartbeats, and redialing with
// exponential backoff and jitter. Advertisement re-sync on reconnect
// falls out of the handshake (snapshot exchange) plus the broker's
// salvage stash, so a healed link converges without mesh involvement.
//
// The mesh deliberately sits outside the broker's data plane: once a
// link is up, forwarded bursts ride the same staged batch path as client
// deliveries and never touch mesh state.
type Mesh struct {
	b   *Broker
	cfg MeshConfig

	mu     sync.Mutex
	links  map[string]*meshLink
	closed bool
	wg     sync.WaitGroup
}

// NewMesh creates a mesh supervisor for b and starts links to
// cfg.Peers. Stop it with Stop; reshape it anytime with SetPeers.
func NewMesh(b *Broker, cfg MeshConfig) *Mesh {
	m := &Mesh{
		b:     b,
		cfg:   cfg.withDefaults(),
		links: make(map[string]*meshLink),
	}
	m.SetPeers(m.cfg.Peers)
	return m
}

// SetPeers reconciles the supervised link set against urls: missing
// links are started, links no longer listed are torn down. Idempotent.
func (m *Mesh) SetPeers(urls []string) {
	want := make(map[string]struct{}, len(urls))
	for _, u := range urls {
		if u != "" {
			want[u] = struct{}{}
		}
	}
	var stop []*meshLink
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	for u, l := range m.links {
		if _, keep := want[u]; !keep {
			delete(m.links, u)
			stop = append(stop, l)
		}
	}
	for u := range want {
		if _, ok := m.links[u]; ok {
			continue
		}
		l := newMeshLink(m, u)
		m.links[u] = l
		m.wg.Add(1)
		go l.supervise()
	}
	m.mu.Unlock()
	for _, l := range stop {
		l.stop()
	}
}

// Links reports every supervised link's status, sorted by URL order of
// the internal map (callers wanting stable output should sort).
func (m *Mesh) Links() []LinkStatus {
	m.mu.Lock()
	links := make([]*meshLink, 0, len(m.links))
	for _, l := range m.links {
		links = append(links, l)
	}
	m.mu.Unlock()
	out := make([]LinkStatus, 0, len(links))
	for _, l := range links {
		out = append(out, l.status())
	}
	return out
}

// Stop tears down every supervised link and waits for the supervisors.
func (m *Mesh) Stop() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	links := make([]*meshLink, 0, len(m.links))
	for _, l := range m.links {
		links = append(links, l)
	}
	m.links = make(map[string]*meshLink)
	m.mu.Unlock()
	for _, l := range links {
		l.stop()
	}
	m.wg.Wait()
}

// meshLink supervises one peer URL through the dial → up → backoff
// cycle (with a standby leg when the peer holds the canonical link).
type meshLink struct {
	m   *Mesh
	url string

	done     chan struct{}
	stopOnce sync.Once

	mu       sync.Mutex
	remoteID string
	state    string
	redials  uint64
	sess     *session
	// dialing is the conn of a dial still in its peer handshake; stop
	// closes it so a silent peer cannot hold the supervisor.
	dialing transport.Conn
}

func newMeshLink(m *Mesh, url string) *meshLink {
	return &meshLink{m: m, url: url, done: make(chan struct{}), state: LinkDialing}
}

func (l *meshLink) stop() {
	l.stopOnce.Do(func() { close(l.done) })
	l.mu.Lock()
	s, conn := l.sess, l.dialing
	l.state = LinkStopped
	l.mu.Unlock()
	if s != nil {
		s.close()
	}
	if conn != nil {
		conn.Close()
	}
}

func (l *meshLink) status() LinkStatus {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LinkStatus{URL: l.url, RemoteID: l.remoteID, State: l.state, Redials: l.redials}
}

func (l *meshLink) setState(state string) {
	l.mu.Lock()
	l.state = state
	l.mu.Unlock()
}

func (l *meshLink) stopped() bool {
	select {
	case <-l.done:
		return true
	default:
		return false
	}
}

// supervise is the link's state machine. One iteration is one dial
// attempt (or one standby period); the session monitor runs inline so a
// link never has more than one goroutine.
func (l *meshLink) supervise() {
	defer l.m.wg.Done()
	b := l.m.b
	bo := newBackoff(l.m.cfg.redialMin, l.m.cfg.redialMax)
	attempts := 0
	for {
		if l.stopped() {
			l.setState(LinkStopped)
			return
		}
		// If the peer already holds the canonical link to us (it dialed,
		// we accepted, and the duplicate-link tie-break kept its
		// direction), don't fight it: stand by until that session dies,
		// then race to redial.
		l.mu.Lock()
		remoteID := l.remoteID
		l.mu.Unlock()
		if remoteID != "" {
			if s := b.peerSessionByID(remoteID); s != nil && !s.dialed {
				l.setState(LinkStandby)
				select {
				case <-l.done:
					l.setState(LinkStopped)
					return
				case <-s.closedCh:
					bo.reset()
					continue
				}
			}
		}
		l.setState(LinkDialing)
		if attempts > 0 {
			l.noteRedial()
		}
		attempts++
		s, err := l.dial()
		if err != nil {
			var dup *duplicatePeerLinkError
			if errors.As(err, &dup) {
				// Learned who lives there; the next iteration stands by on
				// the canonical link instead of backing off blind.
				l.mu.Lock()
				l.remoteID = dup.remoteID
				l.mu.Unlock()
				continue
			}
			l.setState(LinkBackoff)
			if !sleep(l.done, bo.next()) {
				l.setState(LinkStopped)
				return
			}
			continue
		}
		bo.reset()
		l.mu.Lock()
		l.remoteID = s.id
		l.sess = s
		l.state = LinkUp
		l.mu.Unlock()
		again := l.monitor(s)
		l.mu.Lock()
		l.sess = nil
		l.mu.Unlock()
		if !again {
			l.setState(LinkStopped)
			return
		}
	}
}

func (l *meshLink) dial() (*session, error) {
	conn, err := transport.Dial(l.url)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.dialing = conn
	l.mu.Unlock()
	if l.stopped() {
		// stop ran before dialing was set, so it did not close conn.
		conn.Close()
	}
	s, err := l.m.b.connectPeerConn(conn)
	l.mu.Lock()
	l.dialing = nil
	l.mu.Unlock()
	return s, err
}

// monitor watches an up link: every heartbeat interval it checks the
// session's last-receive clock (any inbound traffic is liveness — a
// saturated media link never needs a heartbeat) and probes idle links
// with a best-effort ping the acceptor answers with a pong. A link
// silent for heartbeatMiss intervals is declared partitioned and closed,
// which feeds the redial leg. Returns false when the mesh is stopping.
func (l *meshLink) monitor(s *session) bool {
	cfg := l.m.cfg
	ticker := time.NewTicker(cfg.heartbeatInterval)
	defer ticker.Stop()
	deadline := heartbeatMiss * cfg.heartbeatInterval
	for {
		select {
		case <-l.done:
			s.close()
			return false
		case <-s.closedCh:
			return true
		case <-ticker.C:
			if time.Since(s.lastRecvTime()) > deadline {
				s.close()
				return true
			}
			s.queue.pushBestEffort(peerHeartbeatEvent(hbPing), nil)
		}
	}
}

// noteRedial bumps the link's redial counters: the mesh-wide counter,
// the per-peer counter once the peer's identity is known, and the
// link-local count surfaced by Links.
func (l *meshLink) noteRedial() {
	l.mu.Lock()
	l.redials++
	remoteID := l.remoteID
	l.mu.Unlock()
	reg := l.m.b.Metrics()
	reg.Counter("broker.mesh.redials").Inc()
	if remoteID != "" {
		reg.Counter("broker.peer." + remoteID + ".redials").Inc()
	}
}

// backoff is the redial delay ladder mesh links and resilient clients
// share: it starts at lo (default 100ms), doubles after every failed
// attempt up to hi (default 5s, never below lo), and each delay is
// jittered.
type backoff struct{ lo, hi, cur time.Duration }

func newBackoff(lo, hi time.Duration) backoff {
	if lo <= 0 {
		lo = 100 * time.Millisecond
	}
	if hi < lo {
		hi = max(5*time.Second, lo)
	}
	return backoff{lo: lo, hi: hi, cur: lo}
}

// next returns the delay before the next attempt and doubles the ladder.
func (b *backoff) next() time.Duration {
	d := jitter(b.cur)
	b.cur = min(2*b.cur, b.hi)
	return d
}

// reset returns the ladder to its floor after a successful attempt.
func (b *backoff) reset() { b.cur = b.lo }

// sleep waits d or until stop closes, reporting false on stop.
func sleep(stop <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}

// jitter spreads a backoff over [d/2, d) so a rebooting mesh's
// supervisors don't thundering-herd the surviving brokers.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := int64(d) / 2
	return time.Duration(half + rand.Int63n(half))
}
