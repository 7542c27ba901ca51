package broker

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/metrics"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

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

	// pool is the writer pool that drains this session's queue, bound
	// once before start and immutable after. ownPool marks a private pool
	// (see Broker.bindWriter) whose goroutine this session runs and stops.
	pool    *writerPool
	ownPool bool
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
	// ackFloor is the highest cumulative ack applied. Every rseq in
	// (ackFloor, nextRSeq] is unacked, so the window holds rseq r at
	// index r-ackFloor-1: handleAck pops the acked prefix and retransmit
	// indexes an entry directly.
	ackFloor uint64
	window   ring[relEntry]
	// relOrder holds the unacked rseqs in lastSend order so retransmit
	// scans only the expired prefix instead of sweeping the whole window.
	relOrder ring[uint64]
	// relFlushed is the highest rseq whose frame the writer has flushed
	// (noteFlushed; written by the pool goroutine only). First sends are
	// queued in rseq order, so every first send at or below it is off
	// the wire — half of what handleAck needs to recycle a buffer.
	relFlushed atomic.Uint64

	// recv deduplicates and cumulatively acknowledges the rseq-tagged
	// events arriving on this session.
	recv recvWindow

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

// bindPool routes this session's queue wakeups to the writer pool that
// drains it. Must run before start (and before any concurrent push can
// signal the queue).
func (s *session) bindPool(p *writerPool) {
	s.pool = p
	s.queue.onSignal = func() bool { return p.wake(s) }
}

// start launches the session goroutines: the reader, plus the pool
// goroutine when the session owns its writer pool.
func (s *session) start() {
	s.wg.Add(1)
	go s.readLoop()
	if s.ownPool {
		s.wg.Add(1)
		go s.pool.run(&s.wg)
	}
}

// readLoop ingests burst by burst: decode everything one read delivered
// (a conn that cannot burst yields bursts of one), then route the burst
// in one sweep — targets resolved once per topic, each session locked
// and signalled once. A control event flushes the pending sweep first,
// so request ordering within the burst is preserved. The reliable
// reverse path is coalesced the same way: one cumulative ack per burst
// instead of one per rseq-tagged event.
func (s *session) readLoop() {
	defer s.wg.Done()
	defer s.close()
	sweep := s.b.newRouteSweep()
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
		events, err := transport.RecvBurst(s.conn, events, maxBurst)
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
// request for handleControl rather than a routable publish. The reliable
// acknowledgement is recorded in ack for the caller to send once per
// burst.
func (s *session) ingestPrepare(e *event.Event, ack *ackState) (*event.Event, bool) {
	// Hop-by-hop reliability: rseq-tagged events (control or data) are
	// deduplicated and cumulatively acknowledged before processing.
	if e.RSeq != 0 {
		cum, fresh := s.recv.accept(e.RSeq)
		ack.due, ack.cum = true, cum
		if !fresh {
			if e.RSeq > cum+defaultReliableWindow {
				s.b.ctr.invalid.Inc() // beyond any sender's window
			}
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
			s.b.Metrics().Counter("broker.bad_subscribes").Inc()
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
		s.b.Metrics().Counter("broker.unknown_control").Inc()
	}
}

// outSink abstracts the writer's aggregation strategy per conn
// capability: encoded frame batches flushed with one vectored write
// (FrameConn), or decoded-event batches handed over in one call where
// the conn takes them (EventBatchConn — in-process pipes, where the
// shaper charges syscall cost per call) and one Send per event where it
// does not.
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
	// non-blocking path always report true (their flushes block).
	ready() (bool, error)
	// flushIdle empties the sink if it can do so without blocking and
	// reports whether everything went out; sinks without a non-blocking
	// path flush fully (blocking) and report true.
	flushIdle() (bool, error)
}

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
	conn transport.Conn
	// try, when non-nil, is conn's non-blocking partial-send path, so a
	// shared pool goroutine never stalls on one session's full pipe.
	// Conns without one (shaped and fault-injecting links) block in
	// flush, which their consumer's backpressure paces.
	try transport.TryEventBatchConn
	buf []*event.Event
}

func (s *eventBatchSink) add(it outItem) error {
	s.buf = append(s.buf, it.e)
	if len(s.buf) >= maxBurst {
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
	err := transport.SendEvents(s.conn, s.buf)
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
	n, err := s.try.TrySendEvents(s.buf, maxBurst/4)
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
	if s.try == nil || len(s.buf) < maxBurst {
		return true, nil
	}
	if err := s.tryFlush(); err != nil {
		return false, err
	}
	return len(s.buf) < maxBurst, nil
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
func (s *session) newOutSink() outSink {
	if fc, ok := s.conn.(transport.FrameConn); ok {
		return &frameSink{bw: transport.NewBatcher(fc, s.b.cfg.MaxBatchBytes)}
	}
	try, _ := s.conn.(transport.TryEventBatchConn)
	return &eventBatchSink{conn: s.conn, try: try}
}

// close tears the session down and detaches it from the broker. Safe to
// call multiple times and from any goroutine.
func (s *session) close() {
	s.closeOnce.Do(func() {
		// Close the queue first so a writer mid-drain flushes its batch
		// before the conn is torn down under it; Send/Flush on the closed
		// conn then fail cleanly for any write already past the queue. A
		// private pool stops after its queue closed, the order Broker.Stop
		// uses for the shared pools: its shutdown drain is this session's
		// final flush.
		s.queue.close()
		if s.ownPool {
			close(s.pool.done)
		}
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
