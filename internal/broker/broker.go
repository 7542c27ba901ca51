package broker

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/metrics"
	"github.com/globalmmcs/globalmmcs/internal/topic"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// Mode selects how a broker network routes events.
type Mode int

// Routing modes. Enums start at 1 so the zero value is invalid and the
// constructor can default it.
const (
	// ModeClientServer routes along subscription advertisements (the
	// paper's "client-server mode like JMS").
	ModeClientServer Mode = iota + 1
	// ModePeerToPeer floods events to all peers with TTL and duplicate
	// suppression (the paper's "JXTA-like peer-to-peer mode").
	ModePeerToPeer
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeClientServer:
		return "client-server"
	case ModePeerToPeer:
		return "peer-to-peer"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config parameterises a Broker. The zero value is usable: New fills
// defaults. The unexported fields are fixed in production and exist only
// so this package's tests can shrink them.
type Config struct {
	// ID uniquely names the broker in the network. Default "broker-1".
	ID string
	// Mode selects the routing mode. Default ModeClientServer.
	Mode Mode
	// MeshID scopes peer links to one federation mesh: two brokers link
	// only if their mesh IDs match (an empty ID on either side matches
	// anything, so unscoped deployments keep working).
	MeshID string
	// PeerCreditWindow bounds the best-effort data events in flight to one
	// mesh peer link: staging stops (and broker.peer.<id>.credit_stalls
	// counts the shed events) once sent minus the receiver's cumulative
	// consumption grants reaches the window, so a congested link pushes
	// back at the sender before its queue overflows and sheds blindly.
	// Reliable traffic bypasses the window (it has its own blocking
	// semantics). Default QueueDepth/2 (min 64); negative disables.
	PeerCreditWindow int
	// QueueDepth bounds each session's best-effort lane. Default 512.
	QueueDepth int
	// MaxBatchBytes bounds the encoded bytes a session writer aggregates
	// before forcing a vectored flush. Default 256 KiB.
	MaxBatchBytes int
	// FlushInterval is how long a session writer lingers over a non-empty
	// batch once its queue goes idle, waiting for more traffic to
	// coalesce with. 0 (the default) flushes as soon as the queue idles —
	// batching then happens only under sustained load, costing no
	// latency. Reliable events always flush immediately regardless.
	FlushInterval time.Duration
	// RecordPatterns lists topic patterns recorded to durable on-disk
	// logs (one segmented log per pattern; '+'/'#' wildcards allowed).
	// Events matching a pattern are appended — sequence-stamped and
	// CRC-framed — as they are routed, and late joiners replay them with
	// SubscribeReplay. Empty disables recording.
	RecordPatterns []string
	// RecordDir is the directory holding the per-pattern log
	// directories. Default os.TempDir()/gmmcs-topiclog/<ID>.
	RecordDir string
	// RecordSegmentBytes rolls a log segment once it reaches this size.
	// Default 4 MiB.
	RecordSegmentBytes int64
	// RecordMaxSegments / RecordMaxBytes cap retained history per log;
	// housekeeping reaps whole segments beyond either cap, never one an
	// active replay cursor still reads. 0 = unbounded.
	RecordMaxSegments int
	RecordMaxBytes    int64
	// SessionLinger is how long a client session whose conn died is
	// parked — subscriptions, reliable window and cumulative ack floor
	// retained — awaiting a resume handshake from the redialing client.
	// 0 (the default) disables parking: a dead conn tears the session
	// down immediately, the pre-resilience behaviour.
	SessionLinger time.Duration
	// Metrics receives broker counters; nil allocates a private registry.
	Metrics *metrics.Registry

	// reliableWindow bounds unacked reliable events per session before the
	// broker disconnects the laggard. Default defaultReliableWindow.
	reliableWindow int
	// retransmitInterval is the reliable-delivery RTO. Default 200ms.
	retransmitInterval time.Duration
	// maxRetransmits bounds delivery attempts per reliable event. Default 10.
	maxRetransmits int
	// advRefreshInterval is the soft-state refresh period for subscription
	// advertisements between brokers and the housekeeping tick. Default 2s.
	advRefreshInterval time.Duration
	// maxParkedSessions bounds the parked-session table; past it the
	// oldest park is evicted to admit a new one. Default 1024.
	maxParkedSessions int
}

const (
	// peerStaleAfter is how long a peer link may be silent before a
	// competing duplicate link may supersede it (mesh heartbeats keep
	// healthy links chattier than this).
	peerStaleAfter = 5 * time.Second
	// dedupCapacity bounds how many distinct event sources the
	// duplicate-suppression cache tracks.
	dedupCapacity = 65536
)

func (c Config) withDefaults() Config {
	if c.ID == "" {
		c.ID = "broker-1"
	}
	if c.Mode == 0 {
		c.Mode = ModeClientServer
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 512
	}
	if c.PeerCreditWindow == 0 {
		c.PeerCreditWindow = c.QueueDepth / 2
		if c.PeerCreditWindow < 64 {
			c.PeerCreditWindow = 64
		}
	}
	if c.reliableWindow <= 0 {
		c.reliableWindow = defaultReliableWindow
	}
	if c.retransmitInterval <= 0 {
		c.retransmitInterval = 200 * time.Millisecond
	}
	if c.maxRetransmits <= 0 {
		c.maxRetransmits = 10
	}
	if c.advRefreshInterval <= 0 {
		c.advRefreshInterval = 2 * time.Second
	}
	if c.MaxBatchBytes <= 0 {
		c.MaxBatchBytes = transport.DefaultMaxBatchBytes
	}
	if c.FlushInterval < 0 {
		c.FlushInterval = 0
	}
	if c.SessionLinger < 0 {
		c.SessionLinger = 0
	}
	if c.maxParkedSessions <= 0 {
		c.maxParkedSessions = 1024
	}
	if c.Metrics == nil {
		c.Metrics = &metrics.Registry{}
	}
	if len(c.RecordPatterns) > 0 {
		if c.RecordDir == "" {
			c.RecordDir = filepath.Join(os.TempDir(), "gmmcs-topiclog", c.ID)
		}
		if c.RecordSegmentBytes <= 0 {
			c.RecordSegmentBytes = 4 << 20
		}
	}
	return c
}

// Broker is one node of the messaging middleware. Its state is split
// into two planes:
//
//   - The data plane (subs) resolves publish targets through per-shard
//     trie locks, memoised per topic in each route sweep and revalidated
//     by the shard's mutation epoch; publishes never touch b.mu.
//   - The control plane (b.mu) guards session/peer membership,
//     advertisement bookkeeping and listener lifecycle — the slow,
//     rare mutations.
type Broker struct {
	cfg Config

	// subs is the data plane: the sharded subscription trie. Sessions
	// are keyed by their own patterns plus, for peer links, the remote
	// patterns routed through them.
	subs *topic.ShardedTrie[*session]
	// sweeps lends Broker.route a routeSweep per call (session readers
	// own theirs), so a loopback publish routes through the same slab
	// and arena as a decoded burst.
	sweeps sync.Pool

	mu       sync.RWMutex
	closed   bool
	sessions map[*session]struct{}
	peers    map[*session]struct{}
	ids      map[string]*session
	// patternRefs counts local client subscriptions per pattern; the
	// 0→1 and 1→0 edges trigger advertisements to peers.
	patternRefs map[string]int
	// advApplied records the newest advertisement sequence applied per
	// (origin, pattern), so replays and loops are ignored.
	advApplied map[string]map[string]uint64

	// peerSnap is a lock-free snapshot of b.peers for the peer-to-peer
	// flood path; refreshed under b.mu whenever peering changes.
	peerSnap atomic.Pointer[[]*session]

	advSeq    uint64
	dedup     *dedupCache
	listeners []transport.Listener

	// routed caches "client-server mode" — whether the mesh data path
	// consults forwarding plans instead of flooding the advertisement
	// trie.
	routed bool
	// meshRoutes is the control-plane routing table: advertised pattern →
	// per-origin chosen next hop. Guarded by b.mu; the data plane reads
	// the atomically-published meshPlans snapshot instead.
	meshRoutes map[string]*patternRoute
	meshPlans  atomic.Pointer[meshPlanTable]

	// relStash holds reliable events salvaged from dead peer links, keyed
	// by remote broker id. The next link to the same peer (redial or
	// inbound reconnect) replays them, so a link drop mid-stream does not
	// lose in-flight reliable traffic. Guarded by b.mu; pruned by
	// housekeeping on soft-state expiry.
	relStash map[string]*relSalvage

	// parked holds client sessions whose conns died while SessionLinger
	// was enabled, keyed by resume token (parkedByID indexes the same
	// parks by client id, so a fresh hello invalidates a stale park).
	// Guarded by b.mu; expired parks are reaped at resume time and by
	// housekeeping. draining, once set by Drain, refuses new handshakes
	// and disables parking.
	parked     map[string]*parkedSession
	parkedByID map[string]string
	draining   bool
	tokenSeq   atomic.Uint64

	// rec is the durable-log record plane (nil when RecordPatterns is
	// empty, which keeps recording entirely off the data path).
	rec *recordPlane

	// ctr holds pre-resolved hot-path counters: Registry.Counter takes a
	// registry-wide mutex per lookup, which 64 concurrent session writers
	// would otherwise serialize on for every event.
	ctr brokerCounters

	// pools are the shared egress writers, one per GOMAXPROCS; poolNext
	// round-robins session binding across them.
	pools    []*writerPool
	poolNext atomic.Uint64

	// handshakeTimeout is handshakeDeadline; a field only so a test can
	// shorten it before Serve or ConnectPeerConn.
	handshakeTimeout time.Duration

	wg   sync.WaitGroup
	done chan struct{}
}

// brokerCounters are the per-event instruments of the data path,
// resolved once at construction.
type brokerCounters struct {
	eventsIn    *metrics.Counter
	eventsOut   *metrics.Counter
	eventsRtd   *metrics.Counter
	unroutable  *metrics.Counter
	duplicates  *metrics.Counter
	queueDrops  *metrics.Counter
	invalid     *metrics.Counter
	retransmits *metrics.Counter
	acksIn      *metrics.Counter
	oversized   *metrics.Counter // recorded events too large for a replay envelope
	recycled    *metrics.Counter // replay envelope buffers handleAck returned to the pool
}

func resolveCounters(reg *metrics.Registry) brokerCounters {
	return brokerCounters{
		eventsIn:    reg.Counter("broker.events_in"),
		eventsOut:   reg.Counter("broker.events_out"),
		eventsRtd:   reg.Counter("broker.events_routed"),
		unroutable:  reg.Counter("broker.events_unroutable"),
		duplicates:  reg.Counter("broker.duplicates"),
		queueDrops:  reg.Counter("broker.queue_drops"),
		invalid:     reg.Counter("broker.invalid_events"),
		retransmits: reg.Counter("broker.retransmits"),
		acksIn:      reg.Counter("broker.acks_in"),
		oversized:   reg.Counter("broker.replay_oversized"),
		recycled:    reg.Counter("broker.replay_recycled"),
	}
}

// ErrBrokerStopped is returned by operations on a stopped Broker.
var ErrBrokerStopped = errors.New("broker: closed")

// maxBurst bounds every burst on the data path: the events a session
// reader decodes and routes per sweep, a writer's per-pop drain and
// decoded-event batch, and a client reader's per-receive dispatch. 256
// events cover everything one 256 KiB receive chunk holds at media MTU.
const maxBurst = 256

// New creates a broker and starts its housekeeping loop and its writer
// pools, one per GOMAXPROCS.
func New(cfg Config) *Broker {
	cfg = cfg.withDefaults()
	b := &Broker{
		cfg:         cfg,
		subs:        topic.NewShardedTrie[*session](topic.DefaultShards),
		sessions:    make(map[*session]struct{}),
		peers:       make(map[*session]struct{}),
		ids:         make(map[string]*session),
		patternRefs: make(map[string]int),
		advApplied:  make(map[string]map[string]uint64),
		relStash:    make(map[string]*relSalvage),
		parked:      make(map[string]*parkedSession),
		parkedByID:  make(map[string]string),
		meshRoutes:  make(map[string]*patternRoute),
		dedup:       newDedupCache(dedupCapacity),
		ctr:         resolveCounters(cfg.Metrics),
		done:        make(chan struct{}),

		handshakeTimeout: handshakeDeadline,
	}
	b.routed = cfg.Mode == ModeClientServer
	b.sweeps.New = func() any { return b.newRouteSweep() }
	if len(cfg.RecordPatterns) > 0 {
		b.rec = newRecordPlane(cfg, cfg.Metrics)
	}
	b.pools = make([]*writerPool, runtime.GOMAXPROCS(0))
	for i := range b.pools {
		b.pools[i] = newWriterPool(b)
		b.wg.Add(1)
		go b.pools[i].run(&b.wg)
	}
	b.wg.Add(1)
	go b.housekeeping()
	return b
}

// ID returns the broker's identity.
func (b *Broker) ID() string { return b.cfg.ID }

// Metrics returns the broker's metrics registry.
func (b *Broker) Metrics() *metrics.Registry { return b.cfg.Metrics }

// Serve accepts connections from l until the listener or broker closes.
// The listener is closed by Stop.
func (b *Broker) Serve(l transport.Listener) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		l.Close()
		return
	}
	b.listeners = append(b.listeners, l)
	b.mu.Unlock()
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			b.wg.Add(1)
			go func() {
				defer b.wg.Done()
				b.handshake(conn)
			}()
		}
	}()
}

// Listen starts a listener on the URL and serves it.
func (b *Broker) Listen(url string) (transport.Listener, error) {
	l, err := transport.Listen(url)
	if err != nil {
		return nil, err
	}
	b.Serve(l)
	return l, nil
}

// handshakeDeadline bounds the wait for a new conn's first event, and
// for a dialed peer's hello reply: a remote that connects and says
// nothing is closed instead of holding a goroutine (and Stop, which
// waits for it) indefinitely.
const handshakeDeadline = 10 * time.Second

// handshake reads the first event on a new conn to learn whether the
// remote is a client or a peer broker, then attaches a session.
func (b *Broker) handshake(conn transport.Conn) {
	deadline := time.AfterFunc(b.handshakeTimeout, func() { conn.Close() })
	first, err := conn.Recv()
	if !deadline.Stop() || err != nil {
		conn.Close()
		return
	}
	id := first.Headers[hdrID]
	switch {
	case first.Topic == topicHello && id != "":
		if first.Headers[hdrOp] == opResume {
			if err := b.resumeHandshake(conn, id, first.Headers[hdrToken]); err != nil {
				conn.Close()
			}
			return
		}
		s, err := b.attach(conn, id, false, false)
		if err != nil {
			conn.Close()
			return
		}
		if s.token != "" {
			// Linger-enabled brokers answer every hello with the token the
			// client must present on redial. Best-effort and unsequenced:
			// the reply must not consume a reliable rseq.
			s.queue.pushBestEffort(welcomeEvent(opWelcome, s.token), nil)
		}
	case first.Topic == topicPeer && id != "":
		modeStr := first.Headers[hdrMode]
		m, _ := strconv.Atoi(modeStr)
		if Mode(m) != b.cfg.Mode {
			conn.Close()
			return
		}
		if remoteMesh := first.Headers[hdrMesh]; remoteMesh != "" && b.cfg.MeshID != "" && remoteMesh != b.cfg.MeshID {
			conn.Close()
			return
		}
		s, err := b.attach(conn, id, true, false)
		if err != nil {
			var dup *duplicatePeerLinkError
			if errors.As(err, &dup) {
				// Courtesy reply so the rejected dialer learns our identity
				// and can stand by on the surviving canonical link instead of
				// redialing blind.
				_ = conn.Send(peerHelloEvent(b.cfg.ID, b.cfg.Mode, b.cfg.MeshID))
			}
			conn.Close()
			return
		}
		// Reply so the dialer learns our identity, then replay anything
		// salvaged from this peer's previous link, then share soft state.
		s.queue.pushReliable(peerHelloEvent(b.cfg.ID, b.cfg.Mode, b.cfg.MeshID))
		b.replaySalvaged(s)
		b.sendAdvertisementSnapshot(s)
	default:
		conn.Close()
	}
}

// duplicatePeerLinkError reports that a peer link was rejected because a
// live canonical link to the same broker already exists.
type duplicatePeerLinkError struct{ remoteID string }

func (e *duplicatePeerLinkError) Error() string {
	return fmt.Sprintf("broker: duplicate peer link to %s (canonical link alive)", e.remoteID)
}

// refreshPeerSnapLocked rebuilds the lock-free peer snapshot. Callers
// hold b.mu.
func (b *Broker) refreshPeerSnapLocked() {
	snap := make([]*session, 0, len(b.peers))
	for p := range b.peers {
		snap = append(snap, p)
	}
	b.peerSnap.Store(&snap)
}

// peerSnapshot returns the current peer set without taking b.mu.
func (b *Broker) peerSnapshot() []*session {
	if p := b.peerSnap.Load(); p != nil {
		return *p
	}
	return nil
}

// hasPeers reports whether any peer link is attached, without b.mu.
func (b *Broker) hasPeers() bool {
	p := b.peerSnap.Load()
	return p != nil && len(*p) > 0
}

// bindWriter binds s to the writer pool that drains its send queue: the
// next shared pool, or — for a conn whose sends deliberately block
// (spin-wait link emulation) — a private pool of its own, so one
// emulated link's host cost never head-of-line blocks a shared pool's
// other sessions. s.start runs a private pool and s.close stops it.
func (b *Broker) bindWriter(s *session) {
	if sb, ok := s.conn.(transport.SendBlocker); ok && sb.SendBlocks() {
		s.ownPool = true
		s.bindPool(newWriterPool(b))
		return
	}
	s.bindPool(b.pools[int(b.poolNext.Add(1)-1)%len(b.pools)])
}

// attach registers a session for conn and starts its goroutines. dialed
// marks peer sessions this broker established (the tie-break input for
// duplicate-link resolution).
func (b *Broker) attach(conn transport.Conn, id string, isPeer, dialed bool) (*session, error) {
	s := newSession(b, conn, id, isPeer)
	s.dialed = dialed
	if !isPeer && b.cfg.SessionLinger > 0 {
		s.token = b.mintToken()
	}
	b.bindWriter(s)
	b.mu.Lock()
	if b.closed || b.draining {
		b.mu.Unlock()
		return nil, ErrBrokerStopped
	}
	if old, exists := b.ids[id]; exists {
		if isPeer && old.isPeer && b.keepOldPeerLinkLocked(old, s, id) {
			b.mu.Unlock()
			return nil, &duplicatePeerLinkError{remoteID: id}
		}
		b.mu.Unlock()
		// A reconnecting client (or a superseding peer link) replaces its
		// old session.
		old.close()
		b.mu.Lock()
		if b.closed || b.draining {
			b.mu.Unlock()
			return nil, ErrBrokerStopped
		}
	}
	// A fresh attach for an id orphans any park under that id (including
	// one the supersede above just created): the client evidently started
	// over, so the retained window would only replay stale state.
	b.purgeParkLocked(id)
	b.ids[id] = s
	b.sessions[s] = struct{}{}
	if isPeer {
		b.peers[s] = struct{}{}
		b.refreshPeerSnapLocked()
		reg := b.Metrics()
		s.fwdCtr = reg.Counter("broker.peer." + id + ".forwarded")
		s.dupCtr = reg.Counter("broker.peer." + id + ".dup_dropped")
		s.creditStallCtr = reg.Counter("broker.peer." + id + ".credit_stalls")
		s.linkDropCtr = reg.Counter("broker.peer." + id + ".queue_drops")
		reg.Gauge("broker.peer." + id + ".links").Set(1)
	}
	b.mu.Unlock()
	s.start()
	b.Metrics().Counter("broker.sessions_attached").Inc()
	return s, nil
}

// replaySalvaged replays reliable events salvaged from this peer's
// previous link, in their original send order. Both handshake sides call
// it only after queueing their hello (reply), preserving the wire
// contract that a peer link's first event is the hello — replaying from
// attach would put stale advertisements ahead of the hello and wedge the
// remote's handshake. If s was already superseded, the stash is left for
// the successor link to drain.
func (b *Broker) replaySalvaged(s *session) {
	b.mu.Lock()
	if b.ids[s.id] != s {
		b.mu.Unlock()
		return
	}
	stash := b.relStash[s.id]
	delete(b.relStash, s.id)
	b.mu.Unlock()
	if stash == nil {
		return
	}
	for _, e := range stash.events {
		s.sendReliable(e)
	}
}

// keepOldPeerLinkLocked decides duplicate-peer-link resolution: when two
// brokers dial each other concurrently, both directions come up and one
// must yield deterministically or the pair thrashes (each supersede kills
// the link the other side's supervisor is watching). The canonical link
// between A and B is the one dialed by the lexicographically smaller
// broker id; the new session is rejected only when the old one is
// canonical, still fresh, and the new one is the opposite direction — a
// same-direction arrival is a genuine reconnect and always supersedes, as
// does any arrival beating a stale (silent past peerStaleAfter) link.
// Callers hold b.mu.
func (b *Broker) keepOldPeerLinkLocked(old, s *session, remoteID string) bool {
	if old.dialed == s.dialed {
		return false
	}
	wantDialed := b.cfg.ID < remoteID
	if s.dialed == wantDialed {
		return false // the new link is canonical; supersede
	}
	return time.Since(old.lastRecvTime()) < peerStaleAfter
}

// peerSessionByID returns the live peer session for a remote broker id,
// or nil. Mesh supervisors use it to stand by on an inbound canonical
// link instead of redialing against it.
func (b *Broker) peerSessionByID(id string) *session {
	b.mu.RLock()
	defer b.mu.RUnlock()
	s := b.ids[id]
	if s == nil || !s.isPeer {
		return nil
	}
	return s
}

// relSalvage is one dead peer link's unacknowledged reliable events,
// awaiting replay onto the peer's next link.
type relSalvage struct {
	events []*event.Event
	when   time.Time
}

// detach removes a session after its conn closed. Client sessions that
// hold a resume token are parked — reliable window, ack floors and
// subscription patterns snapshotted — so a redial within SessionLinger
// reattaches where the dead conn left off.
func (b *Broker) detach(s *session) {
	parkable := !s.isPeer && s.token != "" && b.cfg.SessionLinger > 0
	var rel reliableState
	if s.isPeer || parkable {
		rel = s.salvageReliable()
	}
	// A successor link to the same peer replays the unacked events under
	// its own rseqs. Events the remote did receive (ack lost in the
	// partition) replay harmlessly: data events hit the mesh-wide
	// duplicate cache, advertisement applies are seq-idempotent.
	var salvaged []*event.Event
	if s.isPeer {
		for _, pe := range rel.unacked {
			// Hello replies are per-link handshake state, not payload; the
			// successor link runs its own handshake.
			if pe.e.Topic != topicPeer {
				salvaged = append(salvaged, pe.e)
			}
		}
	}
	var park *parkedSession
	if parkable {
		park = &parkedSession{id: s.id, token: s.token, rel: rel, when: time.Now()}
	}
	b.mu.Lock()
	if _, ok := b.sessions[s]; !ok {
		b.mu.Unlock()
		return
	}
	delete(b.sessions, s)
	if park != nil && !b.closed && !b.draining && b.ids[s.id] == s {
		for p := range s.localPatterns {
			park.patterns = append(park.patterns, p)
		}
		b.parkLocked(park)
	}
	wasPeer := false
	if _, wasPeer = b.peers[s]; wasPeer {
		delete(b.peers, s)
		b.refreshPeerSnapLocked()
		// Merge with any stash a predecessor link left undrained (this
		// session may have died before its handshake replayed it), keeping
		// the newest window's worth.
		if prev, ok := b.relStash[s.id]; ok {
			salvaged = append(prev.events, salvaged...)
		}
		if len(salvaged) > b.cfg.reliableWindow {
			salvaged = salvaged[len(salvaged)-b.cfg.reliableWindow:]
		}
		if len(salvaged) > 0 {
			b.relStash[s.id] = &relSalvage{events: salvaged, when: time.Now()}
		}
	}
	if b.ids[s.id] == s {
		delete(b.ids, s.id)
	}
	b.subs.RemoveAll(s)
	if wasPeer {
		// Recompute routes for everything this link advertised: surviving
		// links holding the next-best cost promote into the trie and the
		// plan table immediately, re-routing traffic around the dead link.
		for p := range s.remotePatterns {
			b.recomputePatternRouteLocked(p)
		}
	}
	// Release this client's pattern refcounts; collect 1→0 edges.
	var removals []string
	for p := range s.localPatterns {
		b.patternRefs[p]--
		if b.patternRefs[p] <= 0 {
			delete(b.patternRefs, p)
			removals = append(removals, p)
		}
	}
	peers := b.peerList(nil)
	b.mu.Unlock()
	for _, p := range removals {
		b.advertise(peers, advRemove, p)
	}
	// Drop the session's gauges (unless a reconnection already reclaimed
	// the id) so churning clients cannot grow the registry without bound.
	b.mu.RLock()
	_, idLive := b.ids[s.id]
	b.mu.RUnlock()
	if !idLive {
		b.Metrics().DropGauge("broker.session." + s.id + ".queue_drops")
		b.Metrics().DropGauge("broker.session." + s.id + ".reliable_window")
		if wasPeer {
			b.Metrics().Gauge("broker.peer." + s.id + ".links").Set(0)
		}
	} else if wasPeer {
		b.Metrics().Gauge("broker.peer." + s.id + ".links").Set(1)
	}
	b.Metrics().Counter("broker.sessions_detached").Inc()
}

// parkedSession is the retained state of one client session whose conn
// died while SessionLinger was enabled: everything a resume handshake
// needs to rebuild the session as if the disconnect never happened.
type parkedSession struct {
	id       string
	token    string
	patterns []string
	// rel is the reliable window; resume requeues its unacked events
	// verbatim so the client's cumulative-ack dedup state stays valid
	// across the reattach.
	rel  reliableState
	when time.Time
}

// mintToken builds a resume token. Uniqueness within this broker's
// lifetime is all the scheme needs; the broker id prefix keeps tokens
// from colliding across a mesh.
func (b *Broker) mintToken() string {
	return fmt.Sprintf("%s.%d.%x", b.cfg.ID, b.tokenSeq.Add(1), time.Now().UnixNano())
}

// parkLocked inserts a park, evicting the oldest one past the capacity
// bound. Callers hold b.mu.
func (b *Broker) parkLocked(p *parkedSession) {
	if len(b.parked) >= b.cfg.maxParkedSessions {
		var oldestTok string
		var oldest *parkedSession
		for tok, cand := range b.parked {
			if oldest == nil || cand.when.Before(oldest.when) {
				oldestTok, oldest = tok, cand
			}
		}
		if oldest != nil {
			delete(b.parked, oldestTok)
			delete(b.parkedByID, oldest.id)
		}
	}
	b.parked[p.token] = p
	b.parkedByID[p.id] = p.token
}

// purgeParkLocked drops any park held under id. Callers hold b.mu.
func (b *Broker) purgeParkLocked(id string) {
	if tok, ok := b.parkedByID[id]; ok {
		delete(b.parkedByID, id)
		delete(b.parked, tok)
	}
}

// pruneParked reaps parks whose linger window expired (resume also
// checks expiry, so this is purely a memory bound).
func (b *Broker) pruneParked() {
	if b.cfg.SessionLinger <= 0 {
		return
	}
	cutoff := time.Now().Add(-b.cfg.SessionLinger)
	b.mu.Lock()
	defer b.mu.Unlock()
	for tok, p := range b.parked {
		if p.when.Before(cutoff) {
			delete(b.parked, tok)
			delete(b.parkedByID, p.id)
		}
	}
}

// parkedCount reports the parked-session table size (test hook).
func (b *Broker) parkedCount() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.parked)
}

// takeoverWait bounds how long a resume waits for the token's still
// attached session to finish closing and park before it looks again.
const takeoverWait = 5 * time.Second

// resumeHandshake serves a hello that presented a resume token. A live
// park under that token reattaches the conn to the retained session
// state; anything else — unknown token, expired linger, id mismatch —
// falls back to a fresh attach with an opRejected reply so the client
// knows to rebuild its subscriptions from scratch.
func (b *Broker) resumeHandshake(conn transport.Conn, id, token string) error {
	b.mu.Lock()
	park := b.parked[token]
	if park == nil {
		// The redial can outrun the dying session's teardown: the token's
		// session is still attached (its conn dead but not yet detached,
		// or half-dead — the client saw a cut the broker hasn't). Force
		// the teardown now and wait for its park: close() detaches (and
		// parks) before signalling closedCh, so the window is ready when
		// the wait returns.
		if live := b.ids[id]; live != nil && !live.isPeer && live.token == token {
			b.mu.Unlock()
			live.close()
			wait := time.NewTimer(takeoverWait)
			select {
			case <-live.closedCh:
			case <-wait.C:
			}
			wait.Stop()
			b.mu.Lock()
			park = b.parked[token]
		}
	}
	switch {
	case park == nil:
	case park.id != id:
		// A foreign token must not consume the real owner's park.
		park = nil
	case time.Since(park.when) > b.cfg.SessionLinger:
		b.purgeParkLocked(park.id)
		park = nil
	default:
		b.purgeParkLocked(park.id)
	}
	b.mu.Unlock()
	if park == nil {
		s, err := b.attach(conn, id, false, false)
		if err != nil {
			return err
		}
		s.queue.pushBestEffort(welcomeEvent(opRejected, s.token), nil)
		return nil
	}
	return b.attachResumed(conn, park)
}

// attachResumed registers a new conn against a consumed park: the
// reliable sequence space and ack floors are seeded before the session
// starts, the salvaged window is requeued at its original rseqs, and
// only then are the parked patterns re-registered — so fresh publishes
// cannot outrun the replayed backlog on the reliable lane.
func (b *Broker) attachResumed(conn transport.Conn, park *parkedSession) error {
	s := newSession(b, conn, park.id, false)
	// The token is STABLE across resumes: it identifies the session
	// lineage, not the conn. Rotating it here would open a window — the
	// opResumed welcome drains behind the salvaged reliable backlog, so
	// a client whose new conn dies before the welcome arrives would
	// redial with a token the broker no longer honours, silently
	// downgrading the resume to a fresh attach and losing the window.
	s.token = park.token
	b.bindWriter(s)
	s.resumeReliable(park.rel)
	b.mu.Lock()
	if b.closed || b.draining {
		b.mu.Unlock()
		return ErrBrokerStopped
	}
	if old, exists := b.ids[park.id]; exists {
		b.mu.Unlock()
		// Double-resume race: the newest conn wins, superseding whichever
		// session (fresh or resumed) currently holds the id.
		old.close()
		b.mu.Lock()
		if b.closed || b.draining {
			b.mu.Unlock()
			return ErrBrokerStopped
		}
	}
	// The supersede above may have re-parked the loser; that park is
	// stale the moment this resume succeeds.
	b.purgeParkLocked(park.id)
	b.ids[park.id] = s
	b.sessions[s] = struct{}{}
	b.mu.Unlock()
	for _, p := range park.patterns {
		_ = b.subscribe(s, p)
	}
	s.start()
	s.queue.pushBestEffort(welcomeEvent(opResumed, s.token), nil)
	b.Metrics().Counter("broker.sessions_attached").Inc()
	b.Metrics().Counter("broker.sessions_resumed").Inc()
	return nil
}

// Drain gracefully winds the broker down for a restart or removal: it
// stops accepting new conns, drops parked sessions, tells every client
// to redial elsewhere (a reliable GOAWAY control event), and waits until
// each remaining client session's reliable window is fully acknowledged
// — or ctx expires. Clients that never ack are disconnected by the
// retransmit limit, so the wait terminates. The caller still calls Stop
// afterwards to tear down sessions and goroutines.
func (b *Broker) Drain(ctx context.Context) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrBrokerStopped
	}
	already := b.draining
	b.draining = true
	listeners := b.listeners
	b.listeners = nil
	b.parked = make(map[string]*parkedSession)
	b.parkedByID = make(map[string]string)
	clients := make([]*session, 0, len(b.sessions))
	for s := range b.sessions {
		if !s.isPeer {
			clients = append(clients, s)
		}
	}
	b.mu.Unlock()
	for _, l := range listeners {
		l.Close()
	}
	if !already {
		for _, s := range clients {
			s.sendReliable(goawayEvent())
		}
	}
	ticker := time.NewTicker(20 * time.Millisecond)
	defer ticker.Stop()
	for {
		if b.clientWindowsFlushed() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-b.done:
			return ErrBrokerStopped
		case <-ticker.C:
		}
	}
}

// clientWindowsFlushed reports whether every attached client session's
// reliable window is empty (all sent reliable events acknowledged).
func (b *Broker) clientWindowsFlushed() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for s := range b.sessions {
		if !s.isPeer && s.unackedLen() > 0 {
			return false
		}
	}
	return true
}

// subscribe registers a client pattern and advertises the 0→1 edge.
func (b *Broker) subscribe(s *session, pattern string) error {
	if err := topic.ValidatePattern(pattern); err != nil {
		return err
	}
	if isControlTopic(pattern) {
		return fmt.Errorf("broker: pattern %q is in the reserved namespace", pattern)
	}
	b.mu.Lock()
	if _, dup := s.localPatterns[pattern]; dup {
		b.mu.Unlock()
		return nil
	}
	s.localPatterns[pattern] = struct{}{}
	if err := b.subs.Add(pattern, s); err != nil {
		delete(s.localPatterns, pattern)
		b.mu.Unlock()
		return err
	}
	b.patternRefs[pattern]++
	isNew := b.patternRefs[pattern] == 1
	peers := b.peerList(nil)
	b.mu.Unlock()
	if isNew {
		b.advertise(peers, advAdd, pattern)
	}
	return nil
}

// unsubscribe removes a client pattern and advertises the 1→0 edge.
func (b *Broker) unsubscribe(s *session, pattern string) {
	b.mu.Lock()
	if _, ok := s.localPatterns[pattern]; !ok {
		b.mu.Unlock()
		return
	}
	delete(s.localPatterns, pattern)
	b.subs.Remove(pattern, s)
	b.patternRefs[pattern]--
	wasLast := b.patternRefs[pattern] <= 0
	if wasLast {
		delete(b.patternRefs, pattern)
	}
	peers := b.peerList(nil)
	b.mu.Unlock()
	if wasLast {
		b.advertise(peers, advRemove, pattern)
	}
}

// advertise sends one local-pattern advertisement to the given peers.
// This broker is the origin, so the hop count is 0.
func (b *Broker) advertise(peers []*session, op advOp, pattern string) {
	b.mu.Lock()
	b.advSeq++
	seq := b.advSeq
	b.mu.Unlock()
	adv := subAdvEvent(op, pattern, b.cfg.ID, seq, 0)
	for _, p := range peers {
		p.sendReliable(adv)
	}
}

// sendAdvertisementSnapshot brings a new peer link up to date with every
// pattern this broker can reach: its own local patterns and those learned
// from other peers. Advertisements are mode-independent soft state: even a
// flooding peer-to-peer mesh keeps them so matched peers are served on the
// targeted path and the flood can skip them.
func (b *Broker) sendAdvertisementSnapshot(to *session) {
	type adv struct {
		pattern, origin string
		seq             uint64
		hops            int
	}
	var advs []adv
	b.mu.Lock()
	for p := range b.patternRefs {
		b.advSeq++
		advs = append(advs, adv{p, b.cfg.ID, b.advSeq, 0})
	}
	for peer := range b.peers {
		if peer == to {
			continue
		}
		for pattern, origins := range peer.remotePatterns {
			for origin, ent := range origins {
				seq := b.advApplied[origin][pattern]
				// Advertise our own distance to the origin — the chosen
				// route's cost, or this link's cost if the route table
				// hasn't caught up.
				hops, ok := b.routeCostLocked(pattern, origin)
				if !ok {
					hops = ent.hops + 1
				}
				advs = append(advs, adv{pattern, origin, seq, hops})
			}
		}
	}
	b.mu.Unlock()
	for _, a := range advs {
		to.sendReliable(subAdvEvent(advAdd, a.pattern, a.origin, a.seq, a.hops))
	}
}

// handleAdvertisement applies a peer's subscription advertisement and
// re-propagates it to other peers with the hop count rewritten to this
// broker's own distance to the origin. A same-seq re-arrival via a
// second link (normally suppressed as an already-propagated refresh) is
// still re-propagated when it changed our cheapest cost, so longer
// paths converge without waiting for the next soft-state refresh.
func (b *Broker) handleAdvertisement(from *session, e *event.Event) {
	pattern := e.Headers[hdrPattern]
	origin := e.Headers[hdrOrigin]
	op := advOp(e.Headers[hdrOp])
	seq, err := headerUint(e, hdrSeq)
	if err != nil || pattern == "" || origin == "" {
		return
	}
	hops := 0
	if h, err := headerUint(e, hdrHops); err == nil {
		hops = int(h)
	}
	if origin == b.cfg.ID {
		return // our own advertisement echoed back
	}
	b.mu.Lock()
	applied := b.advApplied[origin]
	if applied == nil {
		applied = make(map[string]uint64)
		b.advApplied[origin] = applied
	}
	if seq < applied[pattern] {
		b.mu.Unlock()
		return
	}
	refresh := seq == applied[pattern] && op == advAdd
	applied[pattern] = seq
	switch op {
	case advAdd:
		origins := from.remotePatterns[pattern]
		if origins == nil {
			origins = make(map[string]advEntry)
			from.remotePatterns[pattern] = origins
		}
		origins[origin] = advEntry{last: time.Now(), hops: hops}
	case advRemove:
		if origins, ok := from.remotePatterns[pattern]; ok {
			delete(origins, origin)
			if len(origins) == 0 {
				delete(from.remotePatterns, pattern)
			}
		}
	default:
		b.mu.Unlock()
		return
	}
	prevCost, hadPrev := b.routeCostLocked(pattern, origin)
	b.recomputePatternRouteLocked(pattern)
	newCost, hasNew := b.routeCostLocked(pattern, origin)
	costChanged := hadPrev != hasNew || prevCost != newCost
	peers := b.peerList(from)
	b.mu.Unlock()
	if refresh && !costChanged {
		return // periodic refresh already propagated once
	}
	adv := subAdvEvent(op, pattern, origin, seq, newCost)
	for _, p := range peers {
		p.sendReliable(adv)
	}
}

// peerList snapshots current peers, excluding one. Callers hold b.mu.
func (b *Broker) peerList(except *session) []*session {
	out := make([]*session, 0, len(b.peers))
	for p := range b.peers {
		if p != except {
			out = append(out, p)
		}
	}
	return out
}

// route delivers an event to matching local sessions and forwards it to
// peers according to the routing mode. from is nil for loopback
// publishes. It is a burst of one through a borrowed sweep: the data
// path takes no broker-wide lock, and the event is encoded at most
// twice regardless of fan-out width — once for local sessions and once
// (a one-byte TTL patch on a buffer copy) for peers.
func (b *Broker) route(e *event.Event, from *session) {
	rs := b.sweeps.Get().(*routeSweep)
	rs.routeOne(e, from)
	rs.finish()
	b.sweeps.Put(rs)
}

// routeStats accumulates the data-path counters of one routing pass.
// The burst path keeps one per sweep and flushes it once per burst, so
// concurrent reader goroutines touch the shared counter cache lines a
// handful of times per burst instead of several times per event — one
// of the global hot points that would otherwise serialize multi-core
// ingest.
type routeStats struct {
	routed     uint64
	unroutable uint64
	duplicates uint64
}

// flush adds the accumulated deltas to the shared counters and resets.
func (st *routeStats) flush(ctr *brokerCounters) {
	if st.routed > 0 {
		ctr.eventsRtd.Add(st.routed)
	}
	if st.unroutable > 0 {
		ctr.unroutable.Add(st.unroutable)
	}
	if st.duplicates > 0 {
		ctr.duplicates.Add(st.duplicates)
	}
	*st = routeStats{}
}

// routeOne is the single implementation of the routing policy —
// duplicate suppression, durable recording, split horizon, per-hop TTL
// decrement, routed (serve-mask) peer forwarding, and the peer-to-peer
// flood. Targets, recorders and the mesh plan come from the topic's
// sweep-private route entry, deliveries and recorded-pattern hits are
// staged for finish, and the event's frames come from the sweep's slab
// and arena.
func (rs *routeSweep) routeOne(e *event.Event, from *session) {
	b, stats := rs.b, &rs.stats
	rs.peersServed = rs.peersServed[:0]
	fromPeer := from != nil && from.isPeer
	// Duplicate suppression arms whenever this broker is part of a mesh:
	// peer-originated traffic always, flooding mode always, and — so that a
	// cyclic client-server mesh kills loops at the origin instead of riding
	// TTL to zero — local publishes too once any peer link is up. A
	// standalone broker never pays for the cache lookup.
	if fromPeer || b.cfg.Mode == ModePeerToPeer || b.hasPeers() {
		if b.dedup.seen(e.Key()) {
			stats.duplicates++
			if fromPeer && from.dupCtr != nil {
				from.dupCtr.Inc()
			}
			return
		}
	}
	ent := rs.lookup(e.Topic)
	fs := rs.source(e)
	// Record after duplicate suppression (a mesh copy must not be logged
	// twice) and before target iteration (an event with zero current
	// subscribers is still history a late joiner replays).
	for _, r := range ent.recs {
		rs.recordStage(r, e, fs)
	}
	// Routed mode: resolve the forwarding plan once per event. inMask is
	// the set of origins this copy is responsible for — everything for a
	// local publish or an unmasked (flood-sent) arrival, the carried
	// serve-mask otherwise.
	var plan *topicPlan
	var inMask uint64
	if b.routed && e.TTL > 0 && b.hasPeers() {
		if plan = rs.planOf(ent); plan != nil {
			inMask = e.Mask
			if inMask == 0 {
				inMask = ^uint64(0)
			}
		}
	}
	var peerFS *frameSource
	var peerEvent *event.Event
	preparePeer := func() {
		if peerEvent == nil {
			c := *e
			c.TTL--
			peerEvent = &c
			peerFS = fs.derive(c.TTL)
		}
	}
	delivered := 0
	for _, t := range ent.targets {
		if t == from && t.isPeer {
			continue // split horizon: never echo back along the inbound link
		}
		if t.isPeer {
			if e.TTL == 0 {
				continue
			}
			if plan != nil {
				// The copy staged on a chosen link serves exactly the
				// origins assigned to that link — and only those this
				// copy was itself responsible for.
				m := plan.maskFor(t) & inMask
				if m == 0 {
					continue
				}
				if !e.Reliable && !t.creditCharge() {
					continue
				}
				me, mfs := fs.deriveMasked(e.TTL-1, m)
				rs.deliverStaged(t, me, mfs)
			} else {
				if !e.Reliable && !t.creditCharge() {
					continue
				}
				preparePeer()
				rs.deliverStaged(t, peerEvent, peerFS)
			}
			rs.peersServed = append(rs.peersServed, t)
		} else {
			rs.deliverStaged(t, e, fs)
		}
		delivered++
	}
	if b.cfg.Mode == ModePeerToPeer && e.TTL > 0 {
	flood:
		for _, p := range b.peerSnapshot() {
			if p == from {
				continue
			}
			// A peer that advertised a matching pattern was already served
			// above; flooding it again would put the same event on the
			// wire twice.
			for _, d := range rs.peersServed {
				if d == p {
					continue flood
				}
			}
			if !e.Reliable && !p.creditCharge() {
				continue
			}
			preparePeer()
			rs.deliverStaged(p, peerEvent, peerFS)
			delivered++
		}
	}
	stats.routed++
	if delivered == 0 {
		stats.unroutable++
	}
}

// matchSessions resolves the sessions subscribed to a concrete topic on
// the data-plane trie (no broker-wide lock).
func (b *Broker) matchSessions(t string) []*session {
	return b.subs.Match(t, nil)
}

// Publish injects an event into the broker as if a local client had sent
// it. The event must have Source and ID set for duplicate suppression.
func (b *Broker) Publish(e *event.Event) error {
	if err := e.Validate(); err != nil {
		return err
	}
	if err := topic.ValidateTopic(e.Topic); err != nil {
		return err
	}
	if isControlTopic(e.Topic) {
		return fmt.Errorf("broker: cannot publish to reserved topic %q", e.Topic)
	}
	b.route(e, nil)
	return nil
}

// AcceptConn serves one conn established out-of-band, running the same
// handshake as a listener-accepted connection (client hello or peer
// hello). It returns once the session is attached or rejected.
func (b *Broker) AcceptConn(conn transport.Conn) {
	b.handshake(conn)
}

// ConnectPeerConn links this broker to a remote broker over an
// established conn. The handshake exchanges broker IDs and advertisement
// snapshots.
func (b *Broker) ConnectPeerConn(conn transport.Conn) error {
	_, err := b.connectPeerConn(conn)
	return err
}

// connectPeerConn runs the dialer side of the peer handshake and returns
// the attached session (mesh supervisors watch its closedCh for link
// loss).
func (b *Broker) connectPeerConn(conn transport.Conn) (*session, error) {
	if err := conn.Send(peerHelloEvent(b.cfg.ID, b.cfg.Mode, b.cfg.MeshID)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("broker: peer hello: %w", err)
	}
	deadline := time.AfterFunc(b.handshakeTimeout, func() { conn.Close() })
	reply, err := conn.Recv()
	if !deadline.Stop() && err == nil {
		err = fmt.Errorf("no reply within %v", b.handshakeTimeout)
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("broker: waiting for peer hello reply: %w", err)
	}
	// The reply may be tagged reliable; honour its rseq by acking later
	// through the session. Identity is all that matters here.
	if reply.Topic != topicPeer || reply.Headers[hdrID] == "" {
		conn.Close()
		return nil, fmt.Errorf("broker: unexpected first event %q from peer", reply.Topic)
	}
	if remoteMesh := reply.Headers[hdrMesh]; remoteMesh != "" && b.cfg.MeshID != "" && remoteMesh != b.cfg.MeshID {
		conn.Close()
		return nil, fmt.Errorf("broker: peer %s is in mesh %q, not %q",
			reply.Headers[hdrID], remoteMesh, b.cfg.MeshID)
	}
	s, err := b.attach(conn, reply.Headers[hdrID], true, true)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if reply.RSeq != 0 {
		cum, _ := s.recv.accept(reply.RSeq)
		s.queue.pushAck(cum)
	}
	b.replaySalvaged(s)
	b.sendAdvertisementSnapshot(s)
	return s, nil
}

// housekeeping drives reliable retransmission, advertisement refresh and
// per-session gauge refresh.
func (b *Broker) housekeeping() {
	defer b.wg.Done()
	retrans := time.NewTicker(b.cfg.retransmitInterval)
	defer retrans.Stop()
	refresh := time.NewTicker(b.cfg.advRefreshInterval)
	defer refresh.Stop()
	for {
		select {
		case <-b.done:
			return
		case now := <-retrans.C:
			b.mu.RLock()
			sessions := make([]*session, 0, len(b.sessions))
			for s := range b.sessions {
				sessions = append(sessions, s)
			}
			b.mu.RUnlock()
			for _, s := range sessions {
				b.publishSessionGauges(s)
				if s.retransmit(now, b.cfg.retransmitInterval, b.cfg.maxRetransmits) {
					s.close()
				}
			}
		case <-refresh.C:
			b.mu.Lock()
			patterns := make([]string, 0, len(b.patternRefs))
			for p := range b.patternRefs {
				patterns = append(patterns, p)
			}
			peers := b.peerList(nil)
			b.mu.Unlock()
			for _, p := range patterns {
				b.advertise(peers, advAdd, p)
			}
			b.pruneStaleAdvertisements()
			b.pruneRelStash()
			b.pruneParked()
			// One dedup generation per refresh tick: sources idle for
			// three ticks (matching the advertisement soft-state horizon)
			// free their 1 KiB windows.
			b.dedup.sweepIdle(3)
			// Durable-log retention and gauges piggyback on the same tick
			// (no broker lock held here; each log takes its own).
			if b.rec != nil {
				b.rec.refresh()
			}
		}
	}
}

// publishSessionGauges refreshes the per-session observability gauges:
// best-effort queue drops and reliable-window occupancy.
func (b *Broker) publishSessionGauges(s *session) {
	reg := b.Metrics()
	reg.Gauge("broker.session." + s.id + ".queue_drops").Set(int64(s.queue.dropCount()))
	reg.Gauge("broker.session." + s.id + ".reliable_window").Set(int64(s.unackedLen()))
}

// pruneStaleAdvertisements drops remote patterns that have not been
// refreshed within three refresh intervals (soft-state expiry).
func (b *Broker) pruneStaleAdvertisements() {
	cutoff := time.Now().Add(-3 * b.cfg.advRefreshInterval)
	b.mu.Lock()
	defer b.mu.Unlock()
	var changed map[string]struct{}
	for peer := range b.peers {
		for pattern, origins := range peer.remotePatterns {
			pruned := false
			for origin, ent := range origins {
				if ent.last.Before(cutoff) {
					delete(origins, origin)
					pruned = true
				}
			}
			if len(origins) == 0 {
				delete(peer.remotePatterns, pattern)
			}
			if pruned {
				if changed == nil {
					changed = make(map[string]struct{})
				}
				changed[pattern] = struct{}{}
			}
		}
	}
	for pattern := range changed {
		b.recomputePatternRouteLocked(pattern)
	}
}

// pruneRelStash drops salvaged reliable events whose peer never came
// back within the soft-state horizon; by then its advertisements expired
// too, so replaying would route into a topology that no longer exists.
func (b *Broker) pruneRelStash() {
	cutoff := time.Now().Add(-3 * b.cfg.advRefreshInterval)
	b.mu.Lock()
	defer b.mu.Unlock()
	for id, stash := range b.relStash {
		if stash.when.Before(cutoff) {
			delete(b.relStash, id)
		}
	}
}

// SessionCount returns the number of attached sessions (clients + peers).
func (b *Broker) SessionCount() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.sessions)
}

// PeerCount returns the number of attached peer links.
func (b *Broker) PeerCount() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.peers)
}

// Stop closes all listeners and sessions and waits for every goroutine.
func (b *Broker) Stop() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	listeners := b.listeners
	b.listeners = nil
	sessions := make([]*session, 0, len(b.sessions))
	for s := range b.sessions {
		sessions = append(sessions, s)
	}
	b.mu.Unlock()
	close(b.done)
	for _, l := range listeners {
		l.Close()
	}
	for _, s := range sessions {
		s.stop()
	}
	// Stop the shared writer pools only after every session stopped: each
	// closed queue has already deposited its final wakeup, so the pools'
	// shutdown drain flushes whatever is still staged
	// (reliable-flush-on-close) before exiting. Private pools were
	// stopped, in the same order, by their session's close.
	for _, p := range b.pools {
		close(p.done)
	}
	b.wg.Wait()
	if b.rec != nil {
		b.rec.close()
	}
}
