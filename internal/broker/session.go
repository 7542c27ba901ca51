package broker

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/metrics"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// relEntry tracks one reliable event awaiting acknowledgement. Exactly
// one of e/frame is set: non-framed sessions retransmit the decoded
// rseq-tagged event, framed sessions retransmit the rseq-patched frame
// (the encoding is never redone after the initial send).
type relEntry struct {
	e        *event.Event
	frame    *event.Frame
	lastSend time.Time
	attempts int
}

// item returns the queue item that (re)sends this entry.
func (r *relEntry) item() outItem {
	return outItem{e: r.e, frame: r.frame, reliable: true}
}

// seqRing is a FIFO ring of reliable sequence numbers ordered by last
// send time: sends append at the tail, and a retransmission re-appends
// with a fresh lastSend, so the head is always the entry that has waited
// longest. Acked entries are not removed eagerly — they are reaped
// lazily when they surface at the head (mirroring the ack floor on the
// receive side).
type seqRing struct {
	buf  []uint64
	head int
	n    int
}

func (r *seqRing) push(v uint64) {
	if r.n == len(r.buf) {
		grown := make([]uint64, max(16, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf = grown
		r.head = 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

func (r *seqRing) peek() (uint64, bool) {
	if r.n == 0 {
		return 0, false
	}
	return r.buf[r.head], true
}

func (r *seqRing) pop() (uint64, bool) {
	v, ok := r.peek()
	if !ok {
		return 0, false
	}
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v, true
}

// session is the broker-side state for one attached remote: either a
// client or a peer broker link.
type session struct {
	b      *Broker
	conn   transport.Conn
	id     string
	isPeer bool
	// token is the resume token minted for client sessions when session
	// linger is enabled (empty otherwise). Immutable after attach; a
	// dying session parks under it so a redialing client can reattach.
	token string
	// dialed marks a peer session this broker established (vs accepted) —
	// the tie-break input for duplicate-link resolution.
	dialed bool
	// framed reports whether conn supports pre-encoded frames, decided
	// once at attach so the data path never type-asserts per event.
	framed bool
	queue  *sendQueue

	// pool is the writer pool that drains this session's queue; nil runs
	// the legacy dedicated writeLoop goroutine instead (the per-session
	// ablation). Bound once before start; immutable after.
	pool *writerPool
	// scheduled is the pool-mode dirty flag: true while the session sits
	// on (or is being appended to) its pool's ready list. Producers
	// CAS-arm it so a burst deposits exactly one ready entry.
	scheduled atomic.Bool
	// sink / writerDone / lingering / lingerAt are pool-mode writer state,
	// owned exclusively by the pool goroutine (sessions bind to one pool
	// for life): the persistent outSink, the finalized flag set once the
	// queue drained closed, and the flush-coalescing window bookkeeping.
	sink       outSink
	writerDone bool
	lingering  bool
	lingerAt   time.Time

	// lastRecv is the unixnano of the newest inbound traffic, updated by
	// the read loop per receive. Mesh supervisors read it for heartbeat
	// partition detection; attach reads it to judge link freshness.
	lastRecv atomic.Int64

	// fwdCtr/dupCtr/linkDropCtr are the per-peer-link instruments
	// (broker.peer.<id>.forwarded / .dup_dropped / .queue_drops),
	// resolved once at attach for peer sessions; nil otherwise.
	fwdCtr      *metrics.Counter
	dupCtr      *metrics.Counter
	linkDropCtr *metrics.Counter

	wg        sync.WaitGroup
	closeOnce sync.Once
	// closedCh is closed when the session tears down; mesh supervisors
	// select on it to notice link death without polling.
	closedCh chan struct{}

	// Reliable sender state: events sent with e.Reliable await cumulative
	// acks; the housekeeping loop retransmits stragglers.
	relMu    sync.Mutex
	nextRSeq uint64
	// ackFloor is the highest cumulative ack applied; every rseq in
	// (ackFloor, nextRSeq] is present in unacked, which lets handleAck
	// delete exactly the newly-acked range instead of sweeping the whole
	// window.
	ackFloor uint64
	unacked  map[uint64]*relEntry
	// relOrder holds the unacked rseqs in lastSend order so retransmit
	// scans only the expired prefix instead of sweeping the whole window.
	relOrder seqRing

	// Reliable receiver state: rseq-tagged events arriving on this
	// session are deduplicated and cumulatively acknowledged.
	recvMu  sync.Mutex
	recvCum uint64              // highest contiguous rseq delivered
	ahead   map[uint64]struct{} // delivered above the contiguous point

	// Replay streams this session opened on the durable log plane,
	// keyed by client-chosen stream id. replayMu also guards each
	// stream's stopped/attached flags.
	replayMu sync.Mutex
	replays  map[uint64]*sessionReplay

	// stageSlot is this session's staging slot in a route sweep's current
	// burst, packed as (sweep generation << stageIdxBits | index).
	// Generations are globally unique per burst, so a slot written by a
	// concurrent sweep never validates — staging is O(1) per (event,
	// target) with no map, and a clobbered slot only costs an extra
	// (order-preserving) batch push.
	stageSlot atomic.Uint64

	// remotePatterns is peer-link soft state: pattern → origin broker →
	// advertisement entry (refresh time + the peer's advertised hop
	// distance to that origin). Guarded by the broker mutex.
	remotePatterns map[string]map[string]advEntry

	// routedPatterns tracks which patterns this peer session currently
	// occupies in the routing trie — in routed mode the chosen-next-hop
	// subset of remotePatterns, in flood mode every advertised pattern.
	// Guarded by the broker mutex.
	routedPatterns map[string]struct{}

	// localPatterns tracks a client's own subscriptions so disconnect can
	// release refcounts. Guarded by the broker mutex.
	localPatterns map[string]struct{}

	// Credit flow control (peer links only; creditWindow 0 disables).
	// Sender side: staged best-effort data is admitted while
	//   creditSent - queue.dataEvicted - creditConsumed < creditWindow,
	// where creditConsumed is refilled by the remote's cumulative grants —
	// so a link whose receiver stops draining pushes back at the stage
	// point (shedding counted in credit_stalls) instead of churning the
	// send queue until overflow sheds blindly.
	creditWindow   int
	creditSent     atomic.Uint64
	creditConsumed atomic.Uint64
	creditStallCtr *metrics.Counter
	// Receiver side (readLoop-owned, unsynchronized): consumed best-effort
	// data events since attach, and the count last granted to the remote.
	creditQuantum int
	creditRecvd   uint64
	creditGranted uint64
}

// advEntry is one (pattern, origin) advertisement received on a peer
// link: when it was last refreshed and the peer's own hop distance to
// the origin (this broker's cost via the link is hops+1).
type advEntry struct {
	last time.Time
	hops int
}

func newSession(b *Broker, conn transport.Conn, id string, isPeer bool) *session {
	_, framed := conn.(transport.FrameConn)
	s := &session{
		b:              b,
		conn:           conn,
		id:             id,
		isPeer:         isPeer,
		framed:         framed,
		queue:          newSendQueue(b.cfg.QueueDepth),
		closedCh:       make(chan struct{}),
		unacked:        make(map[uint64]*relEntry),
		ahead:          make(map[uint64]struct{}),
		remotePatterns: make(map[string]map[string]advEntry),
		routedPatterns: make(map[string]struct{}),
		localPatterns:  make(map[string]struct{}),
	}
	if isPeer && b.cfg.PeerCreditWindow > 0 {
		s.creditWindow = b.cfg.PeerCreditWindow
		s.creditQuantum = max(1, s.creditWindow/4)
	}
	s.lastRecv.Store(time.Now().UnixNano())
	return s
}

// creditCharge reports whether one best-effort data event may be staged
// on this link under its credit window — charging the window on admit,
// so even within one staged burst the window is exact — and counts a
// stall otherwise. Non-peer sessions and disabled windows always admit.
func (s *session) creditCharge() bool {
	if s.creditWindow <= 0 {
		return true
	}
	outstanding := int64(s.creditSent.Load()) -
		int64(s.queue.dataEvictedCount()) -
		int64(s.creditConsumed.Load())
	if outstanding < int64(s.creditWindow) {
		s.creditSent.Add(1)
		return true
	}
	if s.creditStallCtr != nil {
		s.creditStallCtr.Inc()
	}
	return false
}

// noteConsumed records n inbound best-effort data events consumed from
// this peer link and pushes a cumulative grant to the remote once a
// quantum (window/4) has accumulated. readLoop-only.
func (s *session) noteConsumed(n int) {
	if n == 0 || s.creditQuantum <= 0 {
		return
	}
	s.creditRecvd += uint64(n)
	if s.creditRecvd-s.creditGranted >= uint64(s.creditQuantum) {
		s.creditGranted = s.creditRecvd
		s.queue.pushCredit(s.creditRecvd)
	}
}

// noteCreditGrant applies a cumulative consumption grant from the
// remote. Grants only ever move the floor forward.
func (s *session) noteCreditGrant(cum uint64) {
	if cum > s.creditConsumed.Load() {
		s.creditConsumed.Store(cum)
	}
}

// lastRecvTime returns when the session last saw inbound traffic.
func (s *session) lastRecvTime() time.Time {
	return time.Unix(0, s.lastRecv.Load())
}

// touchRecv records inbound traffic for freshness/heartbeat checks.
func (s *session) touchRecv() { s.lastRecv.Store(time.Now().UnixNano()) }

// bindPool routes this session's queue wakeups to a writer pool instead
// of a dedicated writeLoop goroutine. Must run before start (and before
// any concurrent push can signal the queue).
func (s *session) bindPool(p *writerPool) {
	s.pool = p
	p.bound.Add(1)
	s.queue.onSignal = func() bool { return p.wake(s) }
}

// start launches the session goroutines: the reader always, plus the
// dedicated writer only in the legacy (pool-less) mode — pool-bound
// sessions are drained by their pool's goroutine instead.
func (s *session) start() {
	if s.pool != nil {
		s.wg.Add(1)
		go s.readLoop()
		return
	}
	s.wg.Add(2)
	go s.readLoop()
	go s.writeLoop()
}

// sendReliable tags e with this session's next rseq and enqueues it on
// the never-dropped lane.
func (s *session) sendReliable(e *event.Event) {
	s.enqueueReliable(e, nil, nil, 0)
}

// sendReliableFrom is sendReliable with an optional shared frame source.
func (s *session) sendReliableFrom(e *event.Event, fs *frameSource) {
	s.enqueueReliable(e, fs, nil, 0)
}

// sendReliableAt re-sends a parked reliable event under its ORIGINAL
// rseq on a resumed session. The successor session's counters were
// seeded from the park (nextRSeq covers every salvaged rseq), so the
// entry slots back into the window exactly where it was: the client's
// cumulative dedup then delivers each salvaged event at most once even
// when the ack for the first delivery was lost in the disconnect.
// Callers replay in ascending rseq order before the session starts.
func (s *session) sendReliableAt(e *event.Event, rseq uint64) {
	s.enqueueReliable(e, nil, nil, rseq)
}

// enqueueReliable is the one reliable send: take the next rseq (or
// re-use at, for a resumed window), build the entry that goes out now
// and retransmits later, and push it on the never-dropped lane. On
// framed sessions the entry is a frame whose trailing rseq slot carries
// the tag, so nothing is re-encoded and no receive arena is pinned: a
// frame shared across a fan-out (fs) is tagged on a copy, one memmove
// per target; a frame only this send holds — owned (the replay lane
// built it and gives it up), or e encoded here — is stamped in place.
// Non-framed (in-process) sessions keep a deep copy of e, which also
// detaches the entry from whatever buffer e's payload aliases.
func (s *session) enqueueReliable(e *event.Event, fs *frameSource, owned *event.Frame, at uint64) {
	s.relMu.Lock()
	rseq := at
	if at == 0 {
		if len(s.unacked) >= s.b.cfg.ReliableWindow {
			// The remote stopped acking; disconnecting is the only safe move
			// that doesn't grow memory without bound.
			s.relMu.Unlock()
			s.b.metrics().Counter("broker.reliable_overflow").Inc()
			s.close()
			return
		}
		s.nextRSeq++
		rseq = s.nextRSeq
	}
	entry := &relEntry{lastSend: time.Now(), attempts: 1}
	switch {
	case !s.framed:
		entry.e = e.Clone()
		entry.e.RSeq = rseq
	case fs != nil:
		entry.frame = fs.reliableFrame().WithRSeq(rseq)
	default:
		if owned == nil {
			owned = event.NewFrameWithRSeqSlot(e)
		}
		owned.StampRSeq(rseq)
		entry.frame = owned
	}
	s.unacked[rseq] = entry
	s.relOrder.push(rseq)
	s.relMu.Unlock()
	s.queue.pushItem(entry.item())
}

// handleAck applies a cumulative acknowledgement. Cost is proportional
// to the number of newly acknowledged events, not the window size: every
// rseq between the previous floor and cum is deleted directly.
func (s *session) handleAck(cum uint64) {
	s.relMu.Lock()
	defer s.relMu.Unlock()
	if cum > s.nextRSeq {
		cum = s.nextRSeq
	}
	for rseq := s.ackFloor + 1; rseq <= cum; rseq++ {
		delete(s.unacked, rseq)
	}
	if cum > s.ackFloor {
		s.ackFloor = cum
	}
}

// unackedLen reports the reliable-window occupancy.
func (s *session) unackedLen() int {
	s.relMu.Lock()
	defer s.relMu.Unlock()
	return len(s.unacked)
}

// retransmit re-enqueues unacked reliable events older than rto. It
// reports whether the session should be closed (too many attempts).
// Cost is proportional to the expired prefix of the send-order ring
// (plus lazily reaped acked entries), not the window size, so large
// reliable windows stay cheap on the housekeeping timer path.
func (s *session) retransmit(now time.Time, rto time.Duration, maxAttempts int) bool {
	s.relMu.Lock()
	defer s.relMu.Unlock()
	for {
		rseq, ok := s.relOrder.peek()
		if !ok {
			return false
		}
		entry, live := s.unacked[rseq]
		if !live {
			s.relOrder.pop() // acked since its last send; reap
			continue
		}
		if now.Sub(entry.lastSend) < rto {
			// The ring is ordered by lastSend: everything behind the head
			// is younger still.
			return false
		}
		if entry.attempts >= maxAttempts {
			return true
		}
		s.relOrder.pop()
		entry.attempts++
		entry.lastSend = now
		s.relOrder.push(rseq)
		// Retransmission reuses the stored form — the rseq-patched frame on
		// framed sessions — so a retry never re-encodes.
		s.queue.pushItem(entry.item())
		s.b.ctr.retransmits.Inc()
	}
}

// salvageUnacked extracts this session's unacknowledged reliable events
// in send order, stripped of their per-hop sequence tags, so a successor
// link to the same peer can replay them. Frame-backed entries are decoded
// once here — link death is rare, and the replay re-tags with the new
// session's rseqs anyway. Events the remote did receive (ack lost in the
// partition) replay harmlessly: data events hit the mesh-wide duplicate
// cache, advertisement applies are seq-idempotent.
func (s *session) salvageUnacked() []*event.Event {
	s.relMu.Lock()
	defer s.relMu.Unlock()
	if len(s.unacked) == 0 {
		return nil
	}
	rseqs := make([]uint64, 0, len(s.unacked))
	for r := range s.unacked {
		rseqs = append(rseqs, r)
	}
	sort.Slice(rseqs, func(i, j int) bool { return rseqs[i] < rseqs[j] })
	out := make([]*event.Event, 0, len(rseqs))
	for _, r := range rseqs {
		ent := s.unacked[r]
		e := ent.e
		if e == nil && ent.frame != nil {
			dec, err := ent.frame.Decode()
			if err != nil {
				continue
			}
			e = dec
		}
		if e == nil {
			continue
		}
		if e.Topic == topicPeer {
			// Hello replies are per-link handshake state, not payload;
			// the successor link runs its own handshake.
			continue
		}
		out = append(out, stripRSeq(e))
	}
	return out
}

// parkedEvent is one salvaged reliable event awaiting resume replay,
// keeping its original per-hop sequence so the successor session can
// re-send it under the same rseq (exactly-once across the reconnect).
type parkedEvent struct {
	rseq uint64
	e    *event.Event
}

// salvageParked extracts the session's unacknowledged reliable window
// for parking: rseq-ordered, decoded from frames, tags stripped from
// the stored events (the rseq travels alongside instead). Unlike
// salvageUnacked this preserves the original sequence numbers — a
// resumed session replays into the SAME numbering space, which is what
// lets the client's cumulative dedup absorb redeliveries.
func (s *session) salvageParked() []parkedEvent {
	s.relMu.Lock()
	defer s.relMu.Unlock()
	if len(s.unacked) == 0 {
		return nil
	}
	rseqs := make([]uint64, 0, len(s.unacked))
	for r := range s.unacked {
		rseqs = append(rseqs, r)
	}
	sort.Slice(rseqs, func(i, j int) bool { return rseqs[i] < rseqs[j] })
	out := make([]parkedEvent, 0, len(rseqs))
	for _, r := range rseqs {
		ent := s.unacked[r]
		e := ent.e
		if e == nil && ent.frame != nil {
			dec, err := ent.frame.Decode()
			if err != nil {
				continue
			}
			e = dec
		}
		if e == nil {
			continue
		}
		out = append(out, parkedEvent{rseq: r, e: stripRSeq(e)})
	}
	return out
}

// relSnapshot reads the reliable sender counters for parking.
func (s *session) relSnapshot() (nextRSeq, ackFloor uint64) {
	s.relMu.Lock()
	defer s.relMu.Unlock()
	return s.nextRSeq, s.ackFloor
}

// seedReliable initialises a resumed session's reliable counters from
// its predecessor's park. Must run before the session starts (no
// concurrent senders yet).
func (s *session) seedReliable(nextRSeq, ackFloor, recvCum uint64) {
	s.nextRSeq = nextRSeq
	s.ackFloor = ackFloor
	s.recvCum = recvCum
}

// acceptReliable performs receiver-side dedup for an rseq-tagged event.
// It returns the cumulative ack to send and whether the event is new.
func (s *session) acceptReliable(rseq uint64) (cum uint64, fresh bool) {
	s.recvMu.Lock()
	defer s.recvMu.Unlock()
	if rseq <= s.recvCum {
		return s.recvCum, false
	}
	if _, dup := s.ahead[rseq]; dup {
		return s.recvCum, false
	}
	s.ahead[rseq] = struct{}{}
	for {
		if _, ok := s.ahead[s.recvCum+1]; !ok {
			break
		}
		delete(s.ahead, s.recvCum+1)
		s.recvCum++
	}
	return s.recvCum, true
}

// inboundRSeq extracts the hop-by-hop reliable sequence tag from an
// inbound event: the wire-native trailing field, or the legacy header.
// bad reports a malformed tag (the event must be discarded).
func inboundRSeq(e *event.Event) (rseq uint64, tagged, bad bool) {
	if e.RSeq != 0 {
		return e.RSeq, true, false
	}
	str, ok := e.Headers[hdrRSeq]
	if !ok {
		return 0, false, false
	}
	v, err := parseUint(str)
	if err != nil {
		return 0, true, true
	}
	return v, true, false
}

// stripRSeq returns e without its per-hop sequence tag, never mutating
// the original (which other sessions may share). The wire-native tag
// costs a shallow struct copy; the legacy header form pays a clone.
func stripRSeq(e *event.Event) *event.Event {
	if e.RSeq != 0 {
		c := *e
		c.RSeq = 0
		return &c
	}
	c := e.Clone()
	delete(c.Headers, hdrRSeq)
	return c
}

func (s *session) readLoop() {
	defer s.wg.Done()
	defer s.close()
	bc, burst := s.conn.(transport.BurstConn)
	maxBurst := s.b.cfg.IngestBurst
	sweep := s.b.newRouteSweep()
	if !burst || maxBurst <= 1 {
		for {
			e, err := s.conn.Recv()
			if err != nil {
				return
			}
			s.touchRecv()
			s.b.ctr.eventsIn.Inc()
			e, isControl := s.ingestPrepare(e, nil)
			switch {
			case e == nil:
			case isControl:
				s.handleControl(e)
			default:
				if !e.Reliable {
					s.noteConsumed(1)
				}
				sweep.routeOne(e, s)
				sweep.finish()
			}
		}
	}

	// Burst ingest: decode everything one read delivered, then route the
	// burst in one sweep — targets resolved once per topic, each session
	// locked and signalled once. A control event flushes the pending
	// sweep first, so request ordering within the burst is preserved.
	// The reliable reverse path is coalesced the same way: one cumulative
	// ack per burst instead of one per rseq-tagged event.
	events := make([]*event.Event, 0, maxBurst)
	routable := make([]*event.Event, 0, maxBurst)
	flush := func() {
		if len(routable) > 0 {
			sweep.routeBatch(routable, s)
			clear(routable)
			routable = routable[:0]
		}
	}
	var ack ackState
	for {
		events = events[:0]
		events, err := bc.RecvBurst(events, maxBurst)
		if len(events) > 0 {
			s.touchRecv()
		}
		s.b.ctr.eventsIn.Add(uint64(len(events)))
		ack = ackState{}
		consumed := 0
		for _, e := range events {
			e, isControl := s.ingestPrepare(e, &ack)
			switch {
			case e == nil:
			case isControl:
				flush()
				s.handleControl(e)
			default:
				if !e.Reliable {
					consumed++
				}
				routable = append(routable, e)
			}
		}
		flush()
		s.noteConsumed(consumed)
		if ack.due {
			s.queue.pushAck(ack.cum)
		}
		// Drop event references eagerly: the reused burst buffer must not
		// pin arena-decoded payloads across idle periods.
		clear(events)
		if err != nil {
			return
		}
	}
}

// ackState accumulates the reverse-path cumulative acknowledgement for
// one ingest burst. Acks are cumulative, so the burst needs exactly one
// — carrying the final floor — rather than one per rseq-tagged event:
// on a lossy peer link that cuts the reverse-path traffic by the burst
// width.
type ackState struct {
	due bool
	cum uint64
}

// ingestPrepare applies the per-event front half of ingest — hop
// reliability, control detection, validation. It returns the prepared
// event (nil when consumed or discarded) and whether it is a control
// request for handleControl rather than a routable publish. When ack is
// non-nil the reliable acknowledgement is recorded there for the caller
// to send once per burst; otherwise it is pushed immediately.
func (s *session) ingestPrepare(e *event.Event, ack *ackState) (*event.Event, bool) {
	// Hop-by-hop reliability: rseq-tagged events (control or data) are
	// deduplicated and cumulatively acknowledged before processing.
	if rseq, tagged, bad := inboundRSeq(e); tagged && e.Topic != topicAck {
		if bad {
			return nil, false
		}
		cum, fresh := s.acceptReliable(rseq)
		if ack != nil {
			ack.due, ack.cum = true, cum
		} else {
			s.queue.pushAck(cum)
		}
		if !fresh {
			return nil, false
		}
		// Strip the per-hop sequence before re-routing.
		e = stripRSeq(e)
	}
	if isControlTopic(e.Topic) {
		return e, true
	}
	if e.Validate() != nil {
		s.b.ctr.invalid.Inc()
		return nil, false
	}
	return e, false
}

func (s *session) handleControl(e *event.Event) {
	switch e.Topic {
	case topicSub:
		pattern := e.Headers[hdrPattern]
		if err := s.b.subscribe(s, pattern); err != nil {
			s.b.metrics().Counter("broker.bad_subscribes").Inc()
		}
	case topicUnsub:
		s.b.unsubscribe(s, e.Headers[hdrPattern])
	case topicAck:
		if cum, err := headerUint(e, hdrRSeq); err == nil {
			s.b.ctr.acksIn.Inc()
			s.handleAck(cum)
		}
	case topicSubAdv:
		if s.isPeer {
			s.b.handleAdvertisement(s, e)
		}
	case topicPing:
		// Echo so clients can fence control-plane ordering: once the pong
		// arrives, every prior request on this session has been applied.
		// The echo rides the reliable machinery so it survives lossy links.
		s.sendReliable(e)
	case topicCredit:
		// Flow-control grant: the remote reports its cumulative count of
		// consumed best-effort data events, refilling our send window.
		if s.isPeer {
			if cum, err := headerUint(e, hdrSeq); err == nil {
				s.noteCreditGrant(cum)
			}
		}
	case topicPeerHB:
		// Mesh heartbeat: answer pings best-effort (an idle link has queue
		// room; a busy link keeps lastRecv fresh through data anyway) and
		// ignore pongs — receiving either already touched lastRecv, which
		// is what the dialer-side supervisor watches.
		if s.isPeer && e.Headers[hdrOp] == hbPing {
			s.queue.pushBestEffort(peerHeartbeatEvent(hbPong), nil)
		}
	case topicReplay:
		switch e.Headers[hdrOp] {
		case repStart:
			s.startReplay(e)
		case repStop:
			if id, err := headerUint(e, hdrReplay); err == nil {
				s.stopReplay(id)
			}
		}
	default:
		s.b.metrics().Counter("broker.unknown_control").Inc()
	}
}

// outSink abstracts the writer's aggregation strategy per conn
// capability: encoded frame batches flushed with one vectored write
// (FrameConn), decoded-event batches handed over in one call
// (EventBatchConn — in-process pipes, where the shaper charges syscall
// cost per call), or plain per-event sends.
type outSink interface {
	// add queues one item; implementations may flush internally on size.
	add(it outItem) error
	// flush forces everything queued onto the conn.
	flush() error
	// pending reports how many items await a flush.
	pending() int
	// ready reports whether the sink can absorb another drain round
	// without blocking the caller on consumer backpressure, attempting a
	// non-blocking partial flush first when it supports one. Pool
	// goroutines check it per round so one clogged session never
	// head-of-line-blocks its pool siblings; sinks without a
	// non-blocking path always report true (their flushes block, as the
	// legacy per-session writer's did).
	ready() (bool, error)
	// flushIdle empties the sink if it can do so without blocking and
	// reports whether everything went out; sinks without a non-blocking
	// path flush fully (blocking) and report true.
	flushIdle() (bool, error)
}

type directSink struct{ conn transport.Conn }

func (d *directSink) add(it outItem) error     { return d.conn.Send(it.e) }
func (d *directSink) flush() error             { return nil }
func (d *directSink) pending() int             { return 0 }
func (d *directSink) ready() (bool, error)     { return true, nil }
func (d *directSink) flushIdle() (bool, error) { return true, nil }

type frameSink struct{ bw *transport.Batcher }

func (f *frameSink) add(it outItem) error {
	if it.frame != nil {
		return f.bw.Add(it.frame.Bytes())
	}
	return f.bw.AddEvent(it.e)
}
func (f *frameSink) flush() error             { return f.bw.Flush() }
func (f *frameSink) pending() int             { return f.bw.Pending() }
func (f *frameSink) ready() (bool, error)     { return true, nil }
func (f *frameSink) flushIdle() (bool, error) { return true, f.bw.Flush() }

type eventBatchSink struct {
	bc transport.EventBatchConn
	// try, when non-nil, is bc's non-blocking partial-send path. Only
	// pool-owned sinks set it: the legacy per-session writer wants the
	// blocking send — consumer backpressure pacing its dedicated
	// goroutine — while a pool goroutine must never stall on one
	// session's full pipe.
	try transport.TryEventBatchConn
	buf []*event.Event
	max int
}

func (s *eventBatchSink) add(it outItem) error {
	s.buf = append(s.buf, it.e)
	if len(s.buf) >= s.max {
		if s.try != nil {
			return s.tryFlush()
		}
		return s.flush()
	}
	return nil
}

func (s *eventBatchSink) flush() error {
	if len(s.buf) == 0 {
		return nil
	}
	err := s.bc.SendEvents(s.buf)
	clear(s.buf) // never pin delivered events in the reused buffer
	s.buf = s.buf[:0]
	return err
}

// tryFlush sends the largest prefix of the buffer the conn can absorb
// without blocking — nothing below a quarter-batch floor, so a slowly
// draining consumer gets a few useful messages instead of many tiny
// ones — keeping the rest (in order) for a later retry. A full conn is
// not an error: the caller parks the session instead.
func (s *eventBatchSink) tryFlush() error {
	if len(s.buf) == 0 {
		return nil
	}
	n, err := s.try.TrySendEvents(s.buf, s.max/4)
	if err != nil {
		return err
	}
	if n > 0 {
		rest := copy(s.buf, s.buf[n:])
		clear(s.buf[rest:]) // never pin delivered events in the reused buffer
		s.buf = s.buf[:rest]
	}
	return nil
}

func (s *eventBatchSink) pending() int { return len(s.buf) }

func (s *eventBatchSink) ready() (bool, error) {
	if s.try == nil || len(s.buf) < s.max {
		return true, nil
	}
	if err := s.tryFlush(); err != nil {
		return false, err
	}
	return len(s.buf) < s.max, nil
}

func (s *eventBatchSink) flushIdle() (bool, error) {
	if s.try == nil {
		return true, s.flush()
	}
	if err := s.tryFlush(); err != nil {
		return false, err
	}
	return len(s.buf) == 0, nil
}

// newOutSink picks the aggregation strategy for this session's conn.
// IngestBurst <= 1 (the ablation setting) also disables decoded-event
// egress batching, so one knob degenerates the whole data path to
// event-at-a-time behaviour.
func (s *session) newOutSink() outSink {
	cfg := s.b.cfg
	if fc, ok := s.conn.(transport.FrameConn); ok {
		return &frameSink{bw: transport.NewBatcher(fc, cfg.MaxBatchBytes)}
	}
	if bc, ok := s.conn.(transport.EventBatchConn); ok && cfg.IngestBurst > 1 {
		sink := &eventBatchSink{bc: bc, max: cfg.IngestBurst}
		if s.pool != nil {
			if tc, ok := bc.(transport.TryEventBatchConn); ok {
				sink.try = tc
			}
		}
		return sink
	}
	return &directSink{conn: s.conn}
}

// writeLoop drains the send queue onto the conn through an outSink,
// flushing on three triggers: the sink's own size bound, the reliable
// lane (which must never linger in user space), and the queue going
// idle — either immediately (FlushInterval 0) or after lingering up to
// FlushInterval for more traffic to coalesce with.
func (s *session) writeLoop() {
	defer s.wg.Done()
	cfg := s.b.cfg
	sink := s.newOutSink()

	// fail closes the session and discards the remaining queue so close()
	// can complete.
	fail := func() {
		s.close()
		for {
			if _, st := s.queue.tryPop(); st != popOK {
				return
			}
		}
	}

	// Burst drain: pop everything queued under one lock acquisition (the
	// consumer-side mirror of pushBatch). IngestBurst <= 1 keeps the
	// event-at-a-time pops of the pre-batching data path.
	batchMax := 0
	if cfg.IngestBurst > 1 {
		batchMax = cfg.IngestBurst
	}
	var drain []outItem

	var lingerTimer *time.Timer
	for {
		var st popState
		drain = drain[:0]
		if batchMax > 0 {
			drain, st = s.queue.popBatch(drain, batchMax)
		} else {
			var it outItem
			it, st = s.queue.tryPop()
			if st == popOK {
				drain = append(drain, it)
			}
		}
		switch st {
		case popOK:
			for _, it := range drain {
				if err := sink.add(it); err != nil {
					fail()
					return
				}
				if it.reliable {
					// Signalling and acks flush as soon as the reliable lane
					// drains; they are never coalesced past their turn.
					if err := sink.flush(); err != nil {
						fail()
						return
					}
				}
			}
			s.b.ctr.eventsOut.Add(uint64(len(drain)))
			// Drop references so the reused drain buffer never pins events.
			clear(drain)
		case popEmpty:
			if sink.pending() > 0 {
				if cfg.FlushInterval > 0 {
					if lingerTimer == nil {
						lingerTimer = time.NewTimer(cfg.FlushInterval)
					} else {
						lingerTimer.Reset(cfg.FlushInterval)
					}
					select {
					case <-s.queue.waitCh():
						if !lingerTimer.Stop() {
							<-lingerTimer.C
						}
						continue // more traffic arrived; keep batching
					case <-lingerTimer.C:
					}
				}
				if err := sink.flush(); err != nil {
					fail()
					return
				}
				continue // re-check: traffic may have arrived during flush
			}
			<-s.queue.waitCh()
		case popClosed:
			// Graceful drain: whatever reached the sink goes out before
			// the writer exits (the conn may already be closed on abortive
			// shutdown, in which case the flush error is moot).
			_ = sink.flush()
			return
		}
	}
}

// close tears the session down and detaches it from the broker. Safe to
// call multiple times and from any goroutine.
func (s *session) close() {
	s.closeOnce.Do(func() {
		// Close the queue first so a writer mid-drain flushes its batch
		// and exits before the conn is torn down under it; Send/Flush on
		// the closed conn then fail cleanly for any write already past
		// the queue.
		s.queue.close()
		_ = s.conn.Close()
		s.b.detach(s)
		close(s.closedCh)
		// Replay teardown runs on its own goroutine: close() can be
		// reached from an attached tail delivery inside the log's append
		// lock (reliable-window overflow), and closing the cursors needs
		// that same lock.
		s.replayMu.Lock()
		active := len(s.replays)
		s.replayMu.Unlock()
		if active > 0 {
			go s.teardownReplays()
		}
	})
}

// stop closes and waits for the session goroutines (not callable from
// within those goroutines).
func (s *session) stop() {
	s.close()
	s.wg.Wait()
}
