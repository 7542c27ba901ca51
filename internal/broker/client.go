package broker

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/topic"
	"github.com/globalmmcs/globalmmcs/internal/topiclog"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// ErrClientClosed is returned by operations on a closed Client.
var ErrClientClosed = errors.New("broker: client closed")

// ErrSubscriptionClosed is returned by RecvBatchContext once the
// subscription is closed and every buffered event has been received.
var ErrSubscriptionClosed = errors.New("broker: subscription closed")

// ErrConnLost is returned when the client's conn to the broker is down:
// the send raced a conn failure, or (for resilient clients) a redial is
// in progress and the operation could not be buffered. Unlike
// ErrClientClosed it is transient — a resilient client recovers.
var ErrConnLost = errors.New("broker: connection lost")

// ConnState describes a client's link to the broker.
type ConnState int32

// Connection states. Enums start at 1 so the zero value is invalid.
const (
	// StateConnected: the conn is up and traffic flows.
	StateConnected ConnState = iota + 1
	// StateReconnecting: the conn died and a resilient client's redial
	// loop is working to replace it. Plain clients never enter it.
	StateReconnecting
	// StateClosed: the client is closed for good.
	StateClosed
)

// String implements fmt.Stringer.
func (s ConnState) String() string {
	switch s {
	case StateConnected:
		return "connected"
	case StateReconnecting:
		return "reconnecting"
	case StateClosed:
		return "closed"
	default:
		return fmt.Sprintf("connstate(%d)", int32(s))
	}
}

// ErrFenceTimeout is returned when the broker does not acknowledge a
// control request within the fence window.
var ErrFenceTimeout = errors.New("broker: control fence timed out")

// subscribeTimeout bounds the control-plane round trip of Subscribe and
// Unsubscribe.
const subscribeTimeout = 10 * time.Second

// clientRouteCacheBound caps the client-side dispatch memo so a hostile
// topic stream cannot grow it without bound.
const clientRouteCacheBound = 1024

// Subscription is a client-side subscription delivering matched events
// through a bounded ring buffer.
//
// The delivery contract is burst-oriented: the client's read loop hands
// each subscription a whole burst at a time (deliverBatch), which
// appends every event under ONE ring-lock hold and deposits ONE
// consumer wakeup — a burst of K matched events costs one lock/signal
// pair, not K channel operations. Consumers drain in bursts too
// (RecvBatch / TryRecvBatch); the channel view returned by C is a
// compatibility facade pumped from the ring.
//
// Overflow policy mirrors the broker's send queues: best-effort events
// displace the oldest buffered best-effort event (drops are counted and
// never touch reliable entries); reliable events overflow into a
// bounded park drained back into the ring as the consumer frees space,
// and only a full park blocks the producer — so one backpressured
// subscription cannot stall delivery to its siblings on the same read
// loop. SetOverflow swaps that default (OverflowLanes) for one of the
// SDK stream policies, which treat both lanes alike.
type Subscription struct {
	client  *Client
	pattern string
	drops   atomic.Uint64

	// mu guards the ring. It serialises producer appends against close so
	// cancelling a subscription while traffic is in flight is safe.
	mu     sync.Mutex
	closed bool
	err    error // why the subscription ended, when not by Cancel/Close
	ring   []*event.Event
	head   int
	n      int
	relN   int // reliable events buffered (never evicted under OverflowLanes)
	maxOcc int // high-water ring occupancy

	// overflow and onDrop are set by SetOverflow. onDrop is read under mu
	// and called outside it.
	overflow OverflowMode
	onDrop   func(dropped uint64)

	// deliverLocks counts producer-side mu acquisitions and wakeups the
	// consumer wakeup tokens deposited. Together they instrument the
	// batching contract — one lock and at most one wakeup per burst per
	// subscription — and are asserted by regression tests.
	deliverLocks atomic.Uint64
	wakeups      atomic.Uint64
	delivered    atomic.Uint64

	// notify carries at most one "events buffered" token; every delivered
	// burst and the close deposit one, the single consumer drains the ring
	// before waiting. space carries at most one "ring space freed" token
	// for reliable producers blocked on a full ring.
	notify chan struct{}
	space  chan struct{}
	// closedSig is closed exactly once when the subscription closes.
	closedSig chan struct{}

	// parked buffers the overflow of a reliable-backpressure burst so one
	// slow subscription cannot stall the client's readLoop — and with it
	// every sibling subscription on the connection. While parked is
	// non-empty all new traffic for this subscription is parked behind it
	// (arrival order is never reordered around the ring); a lazily
	// started drainer goroutine moves parked events into the ring as the
	// consumer frees space. The park is bounded at ring depth: past it,
	// best-effort newcomers are shed (counted as drops) and a reliable
	// newcomer re-engages readLoop backpressure — the last resort, now
	// behind ring+park worth of buffering instead of ring alone.
	parked     []*event.Event
	parkedPeak int
	parkedEv   atomic.Uint64
	// parkSignal wakes the drainer when events are parked; parkSpace wakes
	// a readLoop blocked on a full park. Both carry at most one token.
	parkSignal chan struct{}
	parkSpace  chan struct{}
	drainOnce  sync.Once

	// compatCh backs the C() channel view, pumped lazily from the ring.
	compatOnce sync.Once
	compatCh   chan *event.Event

	// stageGen/stageIdx are the owning read loop's staging slot for the
	// current burst: a generation check instead of a map lookup per
	// (event, subscription) pair. Touched only by the readLoop goroutine.
	stageGen uint64
	stageIdx int

	// replay is non-nil for subscriptions opened with SubscribeReplay:
	// events arrive unpacked from durable-log envelopes instead of the
	// dispatch trie.
	replay *replayState
}

// replayState tracks a replay subscription's broker-side stream.
// pattern/from parameterise the original start request and lastSeq
// tracks the newest delivered record, so a reconnect can restart the
// stream from exactly where delivery left off (broker-side replay
// cursors do not survive a session loss, parked or not) and duplicate
// records straddling the restart are filtered by sequence.
type replayState struct {
	id      uint64
	pattern string
	from    uint64
	lastSeq atomic.Uint64
	live    chan struct{}
	once    sync.Once
}

// CaughtUp returns a channel closed when a replay subscription has
// drained recorded history and handed off to live tail delivery (every
// event after the close is live traffic). For ordinary subscriptions
// it returns nil (never ready).
func (s *Subscription) CaughtUp() <-chan struct{} {
	if s.replay == nil {
		return nil
	}
	return s.replay.live
}

func newSubscription(c *Client, pattern string, depth int) *Subscription {
	return &Subscription{
		client:     c,
		pattern:    pattern,
		ring:       make([]*event.Event, depth),
		notify:     make(chan struct{}, 1),
		space:      make(chan struct{}, 1),
		closedSig:  make(chan struct{}),
		parkSignal: make(chan struct{}, 1),
		parkSpace:  make(chan struct{}, 1),
	}
}

// Pattern returns the subscription pattern.
func (s *Subscription) Pattern() string { return s.pattern }

// OverflowMode selects what the ring does with an event that arrives
// while it is full.
type OverflowMode uint8

const (
	// OverflowLanes is the default: a best-effort event displaces the
	// oldest buffered best-effort event, a reliable one is parked and,
	// past the park, blocks the read loop. Reliable events are never
	// dropped.
	OverflowLanes OverflowMode = iota
	// OverflowDropOldest displaces the oldest buffered event for every
	// newcomer, reliable or not.
	OverflowDropOldest
	// OverflowDropNewest keeps what is buffered and discards the
	// newcomer, reliable or not.
	OverflowDropNewest
)

// SetOverflow selects the full-ring policy and registers onDrop (nil
// for none), which receives the size of every batch of events the ring
// sheds from now on. onDrop runs on the goroutine that delivered the
// overflowing burst — the client's read loop — after the ring lock is
// released, so it must not block. Call it before traffic matters:
// events already parked under OverflowLanes keep their place in line.
func (s *Subscription) SetOverflow(mode OverflowMode, onDrop func(dropped uint64)) {
	s.mu.Lock()
	s.overflow = mode
	s.onDrop = onDrop
	s.mu.Unlock()
}

// noteDrops counts n shed events and reports them to the drop hook the
// caller read under mu. Callers must not hold s.mu.
func (s *Subscription) noteDrops(n uint64, hook func(uint64)) {
	if n == 0 {
		return
	}
	s.drops.Add(n)
	if hook != nil {
		hook(n)
	}
}

// Drops returns how many events the ring and its park shed because the
// consumer was slow: best-effort ones only, under OverflowLanes.
func (s *Subscription) Drops() uint64 { return s.drops.Load() }

// Cancel unsubscribes. Equivalent to Client.Unsubscribe.
func (s *Subscription) Cancel() error { return s.client.Unsubscribe(s) }

// DeliveryStats reports the subscription's batched-delivery counters:
// how many delivery bursts (ring lock acquisitions) and consumer
// wakeups the traffic cost, how many events were admitted, and the
// high-water ring occupancy. Bursts ≪ Events is the amortization the
// batch plane exists for.
type DeliveryStats struct {
	Bursts       uint64
	Wakeups      uint64
	Events       uint64
	MaxOccupancy int
	Capacity     int
	// ParkedEvents counts events that took the overflow park instead of
	// blocking the read loop; MaxParked is the park's high-water mark.
	ParkedEvents uint64
	MaxParked    int
}

// ResetMaxOccupancy clears the ring's high-water occupancy marker (to
// the current occupancy) so a measurement window can record its own
// peak rather than inheriting warmup spikes.
func (s *Subscription) ResetMaxOccupancy() {
	s.mu.Lock()
	s.maxOcc = s.n
	s.mu.Unlock()
}

// DeliveryStats returns a snapshot of the delivery-plane counters.
func (s *Subscription) DeliveryStats() DeliveryStats {
	s.mu.Lock()
	occ, capacity, parkedPeak := s.maxOcc, len(s.ring), s.parkedPeak
	s.mu.Unlock()
	return DeliveryStats{
		Bursts:       s.deliverLocks.Load(),
		Wakeups:      s.wakeups.Load(),
		Events:       s.delivered.Load(),
		MaxOccupancy: occ,
		Capacity:     capacity,
		ParkedEvents: s.parkedEv.Load(),
		MaxParked:    parkedPeak,
	}
}

// signalData deposits the consumer wakeup token (at most one pending).
func (s *Subscription) signalData() {
	select {
	case s.notify <- struct{}{}:
		s.wakeups.Add(1)
	default:
	}
}

// resignal re-arms the wakeup token without counting it as a producer
// wakeup (consumer-side bookkeeping for partial drains and close).
func (s *Subscription) resignal() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

func (s *Subscription) signalSpace() {
	select {
	case s.space <- struct{}{}:
	default:
	}
}

// Done returns a channel closed when the subscription closes, by
// Cancel, by a failure (Err) or with its client.
func (s *Subscription) Done() <-chan struct{} { return s.closedSig }

// Wake returns the channel carrying the subscription's single wakeup
// token, for consumers that multiplex ring draining against their own
// delivery (select-based pumps). After receiving, call TryRecvBatch —
// it re-arms the token when events remain buffered. Spurious wakeups
// are possible and must be tolerated.
func (s *Subscription) Wake() <-chan struct{} { return s.notify }

// deliverBatch appends a whole burst to the ring under one lock hold
// and issues one consumer wakeup. Best-effort overflow evicts the
// oldest buffered best-effort events in bulk (counted as drops,
// skipping reliable entries); a reliable event arriving at a full ring
// is parked rather than blocking the caller, so one backpressured
// subscription never stalls delivery to its siblings on the same read
// loop. Only a full park with more reliable traffic inbound blocks —
// until the drainer frees park space, the subscription closes, or done
// closes.
func (s *Subscription) deliverBatch(events []*event.Event, done <-chan struct{}) {
	for len(events) > 0 {
		s.deliverLocks.Add(1)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		admitted := 0
		var dropped uint64
		if len(s.parked) == 0 {
			var rest []*event.Event
			rest, dropped = s.appendLocked(events)
			admitted = len(events) - len(rest)
			events = rest
		}
		parkedNow := 0
		if len(events) > 0 {
			// Ring full behind a reliable head (or earlier traffic already
			// parked): everything further must queue behind the park so
			// arrival order survives.
			rest, shed := s.parkLocked(events)
			parkedNow = len(events) - len(rest)
			dropped += shed
			events = rest
		}
		hook := s.onDrop
		s.mu.Unlock()
		s.noteDrops(dropped, hook)
		if admitted > 0 {
			s.delivered.Add(uint64(admitted))
			s.signalData()
		}
		if parkedNow > 0 {
			s.parkedEv.Add(uint64(parkedNow))
			s.drainOnce.Do(func() { go s.drainParked() })
			select {
			case s.parkSignal <- struct{}{}:
			default:
			}
		}
		if len(events) == 0 {
			return
		}
		// The park is full and the head of the remainder is reliable:
		// last-resort backpressure, behind ring+park worth of buffering.
		select {
		case <-done:
			return
		case <-s.closedSig:
			return
		case <-s.parkSpace:
		}
	}
}

// parkLocked appends events to the bounded park (capacity = ring
// depth), preserving arrival order. Best-effort newcomers past the
// bound are shed (returned as dropped, for noteDrops); the un-parked
// suffix is returned non-empty only when its head is reliable and the
// park is full. Callers hold s.mu.
func (s *Subscription) parkLocked(events []*event.Event) (rest []*event.Event, dropped uint64) {
	bound := len(s.ring)
	for i, e := range events {
		if len(s.parked) >= bound {
			if e.Reliable {
				rest = events[i:]
				break
			}
			dropped++
			continue
		}
		s.parked = append(s.parked, e)
	}
	if len(s.parked) > s.parkedPeak {
		s.parkedPeak = len(s.parked)
	}
	return rest, dropped
}

// drainParked is the subscription's park drainer, started lazily on
// first overflow. It moves parked events into the ring whenever the
// consumer frees space, waking any readLoop blocked on a full park.
func (s *Subscription) drainParked() {
	for {
		select {
		case <-s.closedSig:
			return
		case <-s.parkSignal:
		case <-s.space:
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		admitted := 0
		var dropped uint64
		if len(s.parked) > 0 {
			var rest []*event.Event
			rest, dropped = s.appendLocked(s.parked)
			admitted = len(s.parked) - len(rest)
			if admitted > 0 {
				n := copy(s.parked, rest)
				for i := n; i < len(s.parked); i++ {
					s.parked[i] = nil
				}
				s.parked = s.parked[:n]
			}
		}
		hook := s.onDrop
		s.mu.Unlock()
		s.noteDrops(dropped, hook)
		if admitted > 0 {
			s.delivered.Add(uint64(admitted))
			s.signalData()
			select {
			case s.parkSpace <- struct{}{}:
			default:
			}
		}
	}
}

// appendLocked copies events into the ring in arrival order. What a
// full ring does with the next event is the overflow mode's call:
// under OverflowLanes a best-effort event evicts the oldest best-effort
// entry and a reliable one stops the append — the un-admitted suffix is
// returned, and the caller must park it or block for space; the two
// drop modes shed the oldest entry or the newcomer whatever its lane, so
// they admit everything. dropped is how many events were shed, once per
// call, for noteDrops after the lock is released. Callers hold s.mu.
func (s *Subscription) appendLocked(events []*event.Event) (rest []*event.Event, dropped uint64) {
	for i, e := range events {
		if s.n == len(s.ring) {
			switch {
			case s.overflow == OverflowDropNewest:
				dropped++
				continue
			case s.overflow == OverflowDropOldest:
				dropped++
				s.replaceHeadLocked(e)
				continue
			case e.Reliable:
				return events[i:], dropped
			}
			dropped++
			if s.relN == 0 {
				// Steady-state overload fast path.
				s.replaceHeadLocked(e)
				continue
			}
			if !s.evictOldestLocked() {
				// Every buffered event is reliable; shed the newcomer.
				continue
			}
		}
		tail := s.head + s.n
		if tail >= len(s.ring) {
			tail -= len(s.ring)
		}
		s.ring[tail] = e
		s.n++
		if e.Reliable {
			s.relN++
		}
		if s.n > s.maxOcc {
			s.maxOcc = s.n
		}
	}
	return nil, dropped
}

// replaceHeadLocked evicts the oldest entry of a full ring to admit e:
// evicting the head and appending at the tail target the same slot, so
// replace in place and advance. Callers hold s.mu.
func (s *Subscription) replaceHeadLocked(e *event.Event) {
	if s.ring[s.head].Reliable {
		s.relN--
	}
	if e.Reliable {
		s.relN++
	}
	s.ring[s.head] = e
	s.head++
	if s.head == len(s.ring) {
		s.head = 0
	}
}

// evictOldestLocked removes the oldest best-effort entry to make room,
// never touching reliable entries. It reports false when the ring holds
// only reliable traffic. Callers hold s.mu.
func (s *Subscription) evictOldestLocked() bool {
	if s.relN == s.n {
		return false
	}
	// Fast path: media rings rarely buffer reliable events at all.
	j := 0
	if s.relN > 0 {
		for s.ring[(s.head+j)%len(s.ring)].Reliable {
			j++
		}
	}
	// Shift the (usually empty) reliable prefix up one slot so the
	// eviction keeps arrival order for what remains.
	for ; j > 0; j-- {
		s.ring[(s.head+j)%len(s.ring)] = s.ring[(s.head+j-1)%len(s.ring)]
	}
	s.ring[s.head] = nil
	s.head++
	if s.head == len(s.ring) {
		s.head = 0
	}
	s.n--
	return true
}

// tryRecv pops up to max events under one lock acquisition. It returns
// the grown buffer, how many events were taken, and whether the
// subscription is closed and fully drained.
func (s *Subscription) tryRecv(buf []*event.Event, max int) ([]*event.Event, int, bool) {
	s.mu.Lock()
	take := s.n
	if take > max {
		take = max
	}
	for i := 0; i < take; i++ {
		e := s.ring[s.head]
		s.ring[s.head] = nil
		s.head++
		if s.head == len(s.ring) {
			s.head = 0
		}
		s.n--
		if e.Reliable {
			s.relN--
		}
		buf = append(buf, e)
	}
	remaining := s.n
	closed := s.closed
	s.mu.Unlock()
	if take > 0 {
		s.signalSpace()
		if remaining > 0 {
			// Partial drain: keep the token armed so the next wait does
			// not miss the leftover.
			s.resignal()
		} else {
			// Full drain: clear any stale token so the next burst's
			// wakeup is observed (and counted) as a fresh one. Safe —
			// an append racing this drain re-checks the ring under mu
			// before any wait.
			select {
			case <-s.notify:
			default:
			}
		}
	}
	return buf, take, closed && remaining == 0
}

// RecvBatch appends up to max buffered events to buf, blocking until at
// least one is available or the subscription closes. The second return
// is false only once the subscription is closed AND fully drained —
// events buffered at close time are still delivered first. A
// Subscription supports a single concurrent receiver; RecvBatch must
// not be mixed with C.
func (s *Subscription) RecvBatch(buf []*event.Event, max int) ([]*event.Event, bool) {
	out, err := s.RecvBatchContext(context.Background(), buf, max)
	return out, err == nil
}

// RecvBatchContext is RecvBatch for a caller that may give up: it
// returns ctx.Err() when ctx ends before an event arrives, and
// ErrSubscriptionClosed once the subscription is closed and fully
// drained. Events come back only with a nil error, and only by being
// popped here, so a cancel racing a delivery loses nothing — the events
// stay in the ring for the next call.
func (s *Subscription) RecvBatchContext(ctx context.Context, buf []*event.Event, max int) ([]*event.Event, error) {
	if max <= 0 {
		max = len(s.ring)
	}
	done := ctx.Done()
	for {
		out, n, drained := s.tryRecv(buf, max)
		if n > 0 {
			return out, nil
		}
		if drained {
			return out, ErrSubscriptionClosed
		}
		buf = out
		if done == nil {
			<-s.notify
			continue
		}
		select {
		case <-s.notify:
		case <-done:
			return buf, ctx.Err()
		}
	}
}

// TryRecvBatch is the non-blocking RecvBatch: it appends whatever is
// buffered (up to max) and returns immediately. The second return is
// false once the subscription is closed and fully drained.
func (s *Subscription) TryRecvBatch(buf []*event.Event, max int) ([]*event.Event, bool) {
	if max <= 0 {
		max = len(s.ring)
	}
	out, _, drained := s.tryRecv(buf, max)
	return out, !drained
}

// compatBurst bounds the C() pump's per-wakeup drain.
const compatBurst = 64

// C returns a channel view of the subscription for select-based
// consumers, closed when the subscription is cancelled or the client
// closes. The channel is fed by a lazily started pump that drains the
// ring in bursts; the per-event channel send this reintroduces is why
// hot-path consumers should drain the ring directly with RecvBatch.
// C and RecvBatch must not be mixed on one subscription.
func (s *Subscription) C() <-chan *event.Event {
	s.compatOnce.Do(func() {
		s.compatCh = make(chan *event.Event, len(s.ring))
		go s.pumpCompat()
	})
	return s.compatCh
}

// pumpCompat forwards the ring onto the compat channel. While the
// subscription is live it forwards with blocking sends (ring overflow
// policy then applies upstream, as it did to the old channel buffer);
// once the subscription closes it forwards without blocking — whatever
// fits in the channel buffer stays readable, mirroring the old
// close-with-buffered-events semantics — and closes the channel.
func (s *Subscription) pumpCompat() {
	defer close(s.compatCh)
	blocking := true
	buf := make([]*event.Event, 0, compatBurst)
	for {
		var ok bool
		buf, ok = s.RecvBatch(buf[:0], compatBurst)
		for _, e := range buf {
			if blocking {
				select {
				case s.compatCh <- e:
					continue
				default:
				}
				select {
				case s.compatCh <- e:
					continue
				case <-s.closedSig:
					blocking = false
				}
			}
			select {
			case s.compatCh <- e:
			default:
				return
			}
		}
		clear(buf)
		if !ok {
			return
		}
	}
}

// Err reports why the subscription ended: nil while it is open and
// after Cancel or Close. A replay subscription ends with an error
// wrapping topiclog.ErrCorrupt when an envelope fails its end-to-end
// check (records ahead of the damage are delivered, none after: the
// stream stops at the gap), or with the broker's reason for ending it.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// fail records why the subscription is about to end; the first reason sticks.
func (s *Subscription) fail(err error) {
	s.mu.Lock()
	if s.err == nil && !s.closed {
		s.err = err
	}
	s.mu.Unlock()
}

// closeRing marks the subscription closed and wakes both sides. Events
// already buffered remain drainable (RecvBatch returns them before
// reporting closure).
func (s *Subscription) closeRing() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if already {
		return
	}
	close(s.closedSig)
	s.resignal()
	s.signalSpace()
}

// Client is the publish/subscribe endpoint used by every Global-MMCS
// component that talks to the broker network.
type Client struct {
	id string

	// connMu guards the live conn, its loss channel and the resume
	// token. conn is nil only for resilient clients between redials;
	// lostCh is closed when the conn it was installed with dies (and
	// replaced wholesale at the next install, so a captured copy always
	// refers to one particular conn's lifetime).
	connMu sync.RWMutex
	conn   transport.Conn
	lostCh chan struct{}
	token  string

	// res is the resilience plane (nil for plain clients): redial
	// config, the supervisor kick channel and the outage publish buffer.
	res *resilientState
	// connState holds the current ConnState for lock-free reads.
	connState atomic.Int32
	// hsCh, when armed (under connMu), receives the op of the next
	// hello reply — the resume handshake completion signal.
	hsCh chan string

	mu     sync.Mutex
	closed bool
	// closedFlag mirrors closed for lock-free reads on the publish hot
	// path.
	closedFlag atomic.Bool
	subs       *topic.Trie[*Subscription]
	subSet     map[*Subscription]struct{}
	// routeEpoch counts subscription-set mutations; the readLoop-private
	// dispatch caches below revalidate against it.
	routeEpoch atomic.Uint64

	// Dispatch state owned by the readLoop goroutine: a per-epoch target
	// cache (no lock on hit — the trie walk under mu happens once per
	// topic per epoch), a last-topic memo that skips even the map for
	// single-stream traffic, and the per-burst staging slots. rlConn is
	// the conn the current read loop serves (reverse-path acks must go
	// out on the conn the traffic arrived on, never a replacement);
	// rlGoaway defers the goaway-triggered close until after the burst's
	// ack is flushed. Only one read loop runs at a time: a resilient
	// client starts the next one strictly after the previous one's exit
	// handshake, so these need no lock.
	rlConn      transport.Conn
	rlGoaway    bool
	routeCache  map[string][]*Subscription
	cacheEpoch  uint64
	lastTopic   string
	lastTargets []*Subscription
	lastValid   bool
	stageGen    uint64
	stageSubs   []*Subscription
	stageItems  [][]*event.Event
	oneEvent    [1]*event.Event

	// dispatchBurst selects the delivery mode: >1 stages a received burst
	// per subscription and delivers it with one ring lock and one wakeup
	// per subscription (the default); <=1 degenerates to event-at-a-time
	// delivery — the ablation the benchmark measures against.
	dispatchBurst atomic.Int32

	// acksSent counts reverse-path reliable acks this client has sent;
	// with burst dispatch they are coalesced to one cumulative ack per
	// burst (asserted by tests, reported by the bench harness).
	acksSent atomic.Uint64

	// Replay unpack state, readLoop-owned like the dispatch state above:
	// the per-envelope event scratch and the topic/source interner.
	// replayCorrupt (client.replay_corrupt) counts envelopes that failed
	// their end-to-end check.
	replayEvents  []*event.Event
	replayIntern  event.Interner
	replayCorrupt atomic.Uint64

	// waiters maps ping tokens to response channels for control fencing.
	waiters map[string]chan struct{}

	// replays maps replay stream ids to their subscriptions (replay
	// events route by id, not by the dispatch trie); replayWait holds
	// the start-handshake completion channels. Both guarded by mu.
	replays    map[uint64]*Subscription
	replayWait map[uint64]chan error

	nextEventID atomic.Uint64
	nextToken   atomic.Uint64

	// Reliable receive state (rseq from the broker).
	recvMu  sync.Mutex
	recvCum uint64
	ahead   map[uint64]struct{}

	wg   sync.WaitGroup
	done chan struct{}
	once sync.Once
}

// Dial connects a new client with the given identity to a broker URL.
func Dial(url, id string) (*Client, error) {
	conn, err := transport.Dial(url)
	if err != nil {
		return nil, err
	}
	return Attach(conn, id)
}

// Attach runs the client handshake over an established conn.
func Attach(conn transport.Conn, id string) (*Client, error) {
	if id == "" {
		return nil, errors.New("broker: client id must not be empty")
	}
	if err := conn.Send(helloEvent(id)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("broker: hello: %w", err)
	}
	c := newClient(id, conn)
	c.setState(StateConnected)
	c.wg.Add(1)
	go c.readLoop(conn)
	return c, nil
}

// newClient builds a Client around an established, hello'd conn.
func newClient(id string, conn transport.Conn) *Client {
	c := &Client{
		id:         id,
		conn:       conn,
		lostCh:     make(chan struct{}),
		subs:       topic.NewTrie[*Subscription](),
		subSet:     make(map[*Subscription]struct{}),
		routeCache: make(map[string][]*Subscription),
		waiters:    make(map[string]chan struct{}),
		replays:    make(map[uint64]*Subscription),
		replayWait: make(map[uint64]chan error),
		ahead:      make(map[uint64]struct{}),
		done:       make(chan struct{}),
		stageGen:   1,
	}
	c.dispatchBurst.Store(clientRecvBurst)
	return c
}

// ConnState reports the client's link state. Plain clients only ever
// move Connected → Closed; resilient clients cycle through
// Reconnecting while their redial loop works.
func (c *Client) ConnState() ConnState { return ConnState(c.connState.Load()) }

// setState records a link-state transition and fires the resilient
// OnState hook on edges.
func (c *Client) setState(st ConnState) {
	if ConnState(c.connState.Swap(int32(st))) == st {
		return
	}
	if c.res != nil && c.res.cfg.OnState != nil {
		c.res.cfg.OnState(st)
	}
}

// currentConn snapshots the live conn and its loss channel. The conn is
// nil while a resilient client is between redials; the channel is
// always non-nil and closes when that particular conn dies.
func (c *Client) currentConn() (transport.Conn, <-chan struct{}) {
	c.connMu.RLock()
	defer c.connMu.RUnlock()
	return c.conn, c.lostCh
}

// send puts one event on the live conn. Every client→broker send
// outside the read loop goes through here (or sendData), so a dead conn
// surfaces uniformly as ErrConnLost — or ErrClientClosed once the
// client is closed for good.
func (c *Client) send(e *event.Event) error {
	conn, _ := c.currentConn()
	if conn == nil {
		return ErrConnLost
	}
	if err := conn.Send(e); err != nil {
		if c.closedFlag.Load() {
			return ErrClientClosed
		}
		return fmt.Errorf("%w: %v", ErrConnLost, err)
	}
	return nil
}

// sendData is send for data-plane publishes: while a resilient client
// is between conns the event is buffered (up to the configured bound)
// and flushed after the reconnect instead of failing.
func (c *Client) sendData(e *event.Event) error {
	conn, _ := c.currentConn()
	if conn == nil {
		if c.res != nil && c.res.buffer(e) {
			return nil
		}
		return ErrConnLost
	}
	if err := conn.Send(e); err != nil {
		if c.closedFlag.Load() {
			return ErrClientClosed
		}
		if c.res != nil && c.res.buffer(e) {
			return nil
		}
		return fmt.Errorf("%w: %v", ErrConnLost, err)
	}
	return nil
}

// SetDispatchBurst selects the client's delivery dispatch mode: n <= 1
// degenerates dispatch to event-at-a-time delivery (one ring lock and
// one wakeup per event, per-event acks — the pre-batching ablation the
// benchmark measures against); any larger value keeps the default
// batched dispatch. Safe to call while traffic flows.
func (c *Client) SetDispatchBurst(n int) {
	if n <= 0 {
		n = clientRecvBurst
	}
	c.dispatchBurst.Store(int32(n))
}

// AckSends reports how many reverse-path reliable acks this client has
// sent (one cumulative ack per received burst under batched dispatch).
func (c *Client) AckSends() uint64 { return c.acksSent.Load() }

// ReplayCorrupt reports how many replay envelopes failed their
// end-to-end check, each ending its subscription (Subscription.Err).
func (c *Client) ReplayCorrupt() uint64 { return c.replayCorrupt.Load() }

// LocalClient attaches an in-process client directly to the broker,
// shaping the broker→client direction with profile. It is the fast path
// used by gateways, examples and the benchmark harness.
func (b *Broker) LocalClient(id string, profile transport.LinkProfile) (*Client, error) {
	clientEnd, serverEnd := transport.Pipe("mem:"+b.cfg.ID, "mem:"+id)
	shaped := transport.Shape(serverEnd, profile)
	b.mu.Lock()
	if b.closed || b.draining {
		b.mu.Unlock()
		clientEnd.Close()
		shaped.Close()
		return nil, ErrBrokerStopped
	}
	b.wg.Add(1)
	b.mu.Unlock()
	go func() {
		defer b.wg.Done()
		b.handshake(shaped)
	}()
	return Attach(clientEnd, id)
}

// ID returns the client identity.
func (c *Client) ID() string { return c.id }

// Done is closed when the client's connection terminates.
func (c *Client) Done() <-chan struct{} { return c.done }

// Subscribe registers a pattern with no deadline beyond the fence
// window. Equivalent to SubscribeContext with a background context.
func (c *Client) Subscribe(pattern string, depth int) (*Subscription, error) {
	return c.SubscribeContext(context.Background(), pattern, depth)
}

// SubscribeContext registers a pattern and returns a Subscription whose
// ring buffers depth events (default 256 if depth <= 0). It blocks
// until the broker has applied the subscription, the fence window
// expires, or ctx is cancelled.
func (c *Client) SubscribeContext(ctx context.Context, pattern string, depth int) (*Subscription, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := topic.ValidatePattern(pattern); err != nil {
		return nil, err
	}
	if isControlTopic(pattern) {
		return nil, fmt.Errorf("broker: pattern %q is reserved", pattern)
	}
	if depth <= 0 {
		depth = 256
	}
	sub := newSubscription(c, pattern, depth)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	if err := c.subs.Add(pattern, sub); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	c.subSet[sub] = struct{}{}
	c.routeEpoch.Add(1)
	c.mu.Unlock()

	if err := c.send(subEvent(pattern, BestEffort)); err != nil {
		c.dropSub(sub)
		return nil, fmt.Errorf("broker: sending subscribe: %w", err)
	}
	if err := c.fence(ctx); err != nil {
		// The broker may already have applied the subscription; revoke
		// it best-effort so an abandoned subscribe does not leave the
		// broker delivering into the void for the connection's lifetime.
		c.dropSub(sub)
		c.revokePattern(pattern)
		return nil, err
	}
	return sub, nil
}

// SubscribeReplay opens a replay subscription over a broker-side
// durable topic log: recorded history from sequence from (0 = from the
// earliest retained record) drains through the returned Subscription's
// ring first, then the stream hands off to live tail delivery with no
// gap and no duplicate — CaughtUp reports the handoff. pattern must
// exactly equal one of the broker's configured record patterns (a
// replay attaches to one log, not a topic expression over several).
// Replayed events arrive on the reliable lane, so a replay
// subscription is never shed broker-side even after it goes live.
func (c *Client) SubscribeReplay(ctx context.Context, pattern string, from uint64, depth int) (*Subscription, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := topic.ValidatePattern(pattern); err != nil {
		return nil, err
	}
	if depth <= 0 {
		depth = 256
	}
	id := c.nextToken.Add(1)
	sub := newSubscription(c, pattern, depth)
	sub.replay = &replayState{id: id, pattern: pattern, from: from, live: make(chan struct{})}
	wait := make(chan error, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	// Replay subscriptions live outside the dispatch trie: their events
	// arrive as id-tagged envelopes, not trie-matched topics.
	c.subSet[sub] = struct{}{}
	c.replays[id] = sub
	c.replayWait[id] = wait
	c.mu.Unlock()
	cleanup := func() {
		c.mu.Lock()
		delete(c.subSet, sub)
		delete(c.replays, id)
		delete(c.replayWait, id)
		c.mu.Unlock()
		sub.closeRing()
	}
	_, lost := c.currentConn()
	if err := c.send(replayStartEvent(pattern, from, id)); err != nil {
		cleanup()
		return nil, fmt.Errorf("broker: sending replay start: %w", err)
	}
	select {
	case err := <-wait:
		c.mu.Lock()
		delete(c.replayWait, id)
		c.mu.Unlock()
		if err != nil {
			cleanup()
			return nil, err
		}
	case <-ctx.Done():
		cleanup()
		_ = c.send(replayStopEvent(id))
		return nil, ctx.Err()
	case <-lost:
		cleanup()
		return nil, ErrConnLost
	case <-c.done:
		cleanup()
		return nil, ErrClientClosed
	case <-time.After(subscribeTimeout):
		cleanup()
		_ = c.send(replayStopEvent(id))
		return nil, ErrFenceTimeout
	}
	return sub, nil
}

// revokePattern sends an unsubscribe for pattern unless another live
// subscription still uses it. Best-effort: no fence, errors ignored —
// used when abandoning a subscribe whose handshake was cancelled.
func (c *Client) revokePattern(pattern string) {
	c.mu.Lock()
	stillUsed := false
	for other := range c.subSet {
		if other.pattern == pattern {
			stillUsed = true
			break
		}
	}
	closed := c.closed
	c.mu.Unlock()
	if stillUsed || closed {
		return
	}
	_ = c.send(unsubEvent(pattern))
}

// Unsubscribe cancels a subscription and closes its delivery ring.
func (c *Client) Unsubscribe(sub *Subscription) error {
	c.mu.Lock()
	if _, ok := c.subSet[sub]; !ok {
		c.mu.Unlock()
		return nil
	}
	if sub.replay != nil {
		// Replay subscriptions are not in the trie and need no fence:
		// the broker-side stream is torn down by a stop request.
		delete(c.subSet, sub)
		delete(c.replays, sub.replay.id)
		closed := c.closed
		c.mu.Unlock()
		sub.closeRing()
		if closed {
			return nil
		}
		if err := c.send(replayStopEvent(sub.replay.id)); err != nil {
			return fmt.Errorf("broker: sending replay stop: %w", err)
		}
		return nil
	}
	delete(c.subSet, sub)
	c.subs.Remove(sub.pattern, sub)
	c.routeEpoch.Add(1)
	stillUsed := false
	for other := range c.subSet {
		if other.pattern == sub.pattern {
			stillUsed = true
			break
		}
	}
	closed := c.closed
	c.mu.Unlock()
	sub.closeRing()
	if closed || stillUsed {
		return nil
	}
	if err := c.send(unsubEvent(sub.pattern)); err != nil {
		return fmt.Errorf("broker: sending unsubscribe: %w", err)
	}
	return c.fence(context.Background())
}

func (c *Client) dropSub(sub *Subscription) {
	c.mu.Lock()
	delete(c.subSet, sub)
	c.subs.Remove(sub.pattern, sub)
	c.routeEpoch.Add(1)
	c.mu.Unlock()
	sub.closeRing()
}

// fence sends a ping and waits for its echo, guaranteeing all prior
// control requests on this connection have been applied by the broker.
// It returns early when ctx is cancelled.
func (c *Client) fence(ctx context.Context) error {
	token := strconv.FormatUint(c.nextToken.Add(1), 10)
	ch := make(chan struct{}, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClientClosed
	}
	c.waiters[token] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.waiters, token)
		c.mu.Unlock()
	}()
	ping := event.New(topicPing, event.KindControl, nil)
	ping.Headers = map[string]string{hdrSeq: token}
	_, lost := c.currentConn()
	if err := c.send(ping); err != nil {
		return fmt.Errorf("broker: sending ping: %w", err)
	}
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-lost:
		// The conn carrying the ping died; its echo will never arrive.
		return ErrConnLost
	case <-c.done:
		return ErrClientClosed
	case <-time.After(subscribeTimeout):
		return ErrFenceTimeout
	}
}

// Publish sends a best-effort event to a topic.
func (c *Client) Publish(t string, kind event.Kind, payload []byte) error {
	e := event.New(t, kind, payload)
	return c.PublishEvent(e)
}

// PublishReliable sends a reliable event to a topic.
func (c *Client) PublishReliable(t string, kind event.Kind, payload []byte) error {
	e := event.New(t, kind, payload)
	e.Reliable = true
	return c.PublishEvent(e)
}

// PublishEvent stamps identity onto e and sends it. The event must not be
// mutated afterwards.
func (c *Client) PublishEvent(e *event.Event) error {
	if err := c.stamp(e); err != nil {
		return err
	}
	if err := c.sendData(e); err != nil {
		return fmt.Errorf("broker: publish: %w", err)
	}
	return nil
}

// stamp validates e and assigns this client's identity and the next
// event id — the shared front half of every publish path (per-event
// sends and the batching Publisher).
func (c *Client) stamp(e *event.Event) error {
	if c.closedFlag.Load() {
		return ErrClientClosed
	}
	if err := e.Validate(); err != nil {
		return err
	}
	if err := topic.ValidateTopic(e.Topic); err != nil {
		return err
	}
	if isControlTopic(e.Topic) {
		return fmt.Errorf("broker: topic %q is reserved", e.Topic)
	}
	e.Source = c.id
	e.ID = c.nextEventID.Add(1)
	return nil
}

// clientRecvBurst bounds how many events the client reader takes per
// burst receive.
const clientRecvBurst = 256

func (c *Client) readLoop(conn transport.Conn) {
	defer c.wg.Done()
	defer c.connDone(conn)
	c.rlConn = conn
	bc, canBurst := conn.(transport.BurstConn)
	if !canBurst {
		for {
			e, err := conn.Recv()
			if err != nil {
				return
			}
			c.handleInbound(e)
			if c.rlGoaway {
				c.rlGoaway = false
				conn.Close()
			}
		}
	}
	// Burst receive: one wakeup and one conn operation per batch the
	// broker's writer flushed; dispatch then rides the same burst —
	// staged per subscription, delivered with one ring lock and one
	// consumer wakeup per subscription per burst, and reverse-path acks
	// coalesced to one cumulative ack per burst.
	events := make([]*event.Event, 0, clientRecvBurst)
	for {
		events = events[:0]
		events, err := bc.RecvBurst(events, clientRecvBurst)
		if c.dispatchBurst.Load() > 1 {
			c.processBurst(events)
		} else {
			for _, e := range events {
				c.handleInbound(e)
			}
		}
		clear(events) // never pin delivered events in the reused buffer
		if c.rlGoaway {
			// Deferred from the goaway handler: the burst's cumulative ack
			// went out first, so the draining broker sees its window flush
			// instead of waiting out the retransmit limit.
			c.rlGoaway = false
			conn.Close()
		}
		if err != nil {
			return
		}
	}
}

// connDone is the tail of every read loop: the conn is dead. A plain
// client (or one whose Close already ran) tears down; a resilient one
// marks the link lost — subscriptions and dedup state intact — and
// kicks the redial supervisor.
func (c *Client) connDone(conn transport.Conn) {
	conn.Close()
	select {
	case <-c.done:
		c.teardown()
		return
	default:
	}
	if c.res == nil {
		c.teardown()
		return
	}
	c.connMu.Lock()
	if c.conn == conn {
		c.conn = nil
		// The closed channel keeps serving currentConn callers until the
		// next install replaces it, so waits against the dead conn fail
		// fast. A handshake waiting on hsCh unblocks via the same close.
		close(c.lostCh)
		c.hsCh = nil
	}
	c.connMu.Unlock()
	c.setState(StateReconnecting)
	select {
	case c.res.kick <- struct{}{}:
	default:
	}
}

// handleInbound processes one event from the broker: hop reliability,
// control fencing, then subscription dispatch. This is the per-event
// path (non-burst conns, and the dispatch ablation).
func (c *Client) handleInbound(e *event.Event) {
	if rseq, tagged, bad := inboundRSeq(e); tagged && e.Topic != topicAck {
		if bad {
			return
		}
		cum, fresh := c.acceptReliable(rseq)
		c.acksSent.Add(1)
		_ = c.rlConn.Send(ackEvent(cum))
		if !fresh {
			return
		}
		e = stripRSeq(e)
	}
	if isControlTopic(e.Topic) {
		c.handleControl(e)
		return
	}
	c.oneEvent[0] = e
	c.dispatchStaged(c.oneEvent[:1])
	c.oneEvent[0] = nil
}

// processBurst is the burst mirror of handleInbound: per-event hop
// reliability and control handling are unchanged, but matched events
// are staged per subscription and handed over as one batch each, and
// the reliable reverse path sends ONE cumulative ack for the whole
// burst instead of one per rseq-tagged event.
func (c *Client) processBurst(events []*event.Event) {
	ackDue := false
	var ackCum uint64
	for _, e := range events {
		if rseq, tagged, bad := inboundRSeq(e); tagged && e.Topic != topicAck {
			if bad {
				continue
			}
			cum, fresh := c.acceptReliable(rseq)
			ackDue, ackCum = true, cum
			if !fresh {
				continue
			}
			e = stripRSeq(e)
		}
		if isControlTopic(e.Topic) {
			// Deliver staged data first so control effects (fence echoes)
			// are observed in arrival order relative to the data around
			// them.
			c.flushStaged()
			c.handleControl(e)
			continue
		}
		c.stageEvent(e)
	}
	c.flushStaged()
	if ackDue {
		c.acksSent.Add(1)
		_ = c.rlConn.Send(ackEvent(ackCum))
	}
}

// handleControl applies one control event: the ping echo that releases
// control fences, hello replies (resume tokens), drain notices, replay
// lifecycle replies, and replay data envelopes.
func (c *Client) handleControl(e *event.Event) {
	switch e.Topic {
	case topicPing:
		c.mu.Lock()
		ch := c.waiters[e.Headers[hdrSeq]]
		c.mu.Unlock()
		if ch != nil {
			select {
			case ch <- struct{}{}:
			default:
			}
		}
	case topicHello:
		c.handleWelcome(e)
	case topicGoaway:
		c.handleGoaway()
	case topicReplay:
		c.handleReplayReply(e)
	case topicReplayData:
		c.handleReplayData(e)
	}
}

// handleWelcome applies the broker's hello reply: store the (re)minted
// resume token and complete any pending resume handshake with the op.
func (c *Client) handleWelcome(e *event.Event) {
	c.connMu.Lock()
	if tok := e.Headers[hdrToken]; tok != "" {
		c.token = tok
	}
	hs := c.hsCh
	c.hsCh = nil
	c.connMu.Unlock()
	if hs != nil {
		select {
		case hs <- e.Headers[hdrOp]:
		default:
		}
	}
}

// handleGoaway reacts to a broker drain notice: rotate to the next
// configured URL, forget the resume token (the draining broker dropped
// its parks, and no other broker honours it), and schedule the conn
// close for after the burst's ack flush so the drain observes this
// client as caught up. Plain clients just ack and stay until the broker
// stops.
func (c *Client) handleGoaway() {
	if c.res == nil {
		return
	}
	c.connMu.Lock()
	c.token = ""
	c.connMu.Unlock()
	c.res.advanceURL()
	c.rlGoaway = true
}

// handleReplayReply applies a replay lifecycle transition: ok/err
// complete the start handshake, live marks the history→tail handoff,
// and a mid-stream err ends the subscription.
func (c *Client) handleReplayReply(e *event.Event) {
	id, err := headerUint(e, hdrReplay)
	if err != nil {
		return
	}
	switch e.Headers[hdrOp] {
	case repOK:
		c.mu.Lock()
		ch := c.replayWaiter(id)
		c.mu.Unlock()
		if ch != nil {
			select {
			case ch <- nil:
			default:
			}
		}
	case repErr:
		detail := e.Headers[hdrError]
		if detail == "" {
			detail = "replay failed"
		}
		c.mu.Lock()
		ch := c.replayWaiter(id)
		sub := c.replays[id]
		delete(c.replays, id)
		if sub != nil {
			delete(c.subSet, sub)
		}
		c.mu.Unlock()
		if ch != nil {
			select {
			case ch <- errors.New("broker: " + detail):
			default:
			}
		}
		if sub != nil {
			// The broker-side stream died (e.g. the log closed): end the
			// subscription so consumers observe termination, not silence.
			sub.fail(errors.New("broker: " + detail))
			sub.closeRing()
		}
	case repLive:
		c.mu.Lock()
		sub := c.replays[id]
		c.mu.Unlock()
		if sub != nil && sub.replay != nil {
			sub.replay.once.Do(func() { close(sub.replay.live) })
		}
	}
}

// replayWaiter returns the pending start-handshake channel for a
// replay id. Caller holds c.mu.
func (c *Client) replayWaiter(id uint64) chan error { return c.replayWait[id] }

// handleReplayData unpacks one replay envelope — a run of
// topiclog-framed records — and delivers the decoded events to the
// stream's subscription as one batch (one ring lock, one wakeup per
// envelope). ParseRecord re-verifies each record's CRC on the way out:
// the end-to-end check of an exactly-once stream. A record that fails
// it, or does not decode, ends the subscription with ErrCorrupt after
// the records ahead of it are delivered — never a silent gap.
func (c *Client) handleReplayData(e *event.Event) {
	id, err := headerUint(e, hdrReplay)
	if err != nil {
		return
	}
	c.mu.Lock()
	sub := c.replays[id]
	c.mu.Unlock()
	if sub == nil {
		return
	}
	payload := e.Payload
	events := c.replayEvents[:0]
	var bad error
	for len(payload) > 0 {
		seq, rec, n, perr := topiclog.ParseRecord(payload, 0)
		if perr != nil {
			bad = perr
			break
		}
		payload = payload[n:]
		if seq <= sub.replay.lastSeq.Load() {
			// Already delivered before a reconnect restarted the stream:
			// the log sequence is the exactly-once dedup key across the
			// old stream's salvaged tail and the restarted cursor.
			continue
		}
		ev, uerr := event.UnmarshalIntern(rec, &c.replayIntern)
		if uerr != nil {
			bad = fmt.Errorf("%w: record %d: %v", topiclog.ErrCorrupt, seq, uerr)
			break
		}
		sub.replay.lastSeq.Store(seq)
		// Replay delivery is reliable end to end regardless of the
		// event's original class: the broker never sheds the stream, and
		// ring admission must block (backpressuring the broker's pump via
		// withheld acks) rather than evict — eviction would break the
		// exactly-once contract the durable log exists for.
		ev.Reliable = true
		events = append(events, ev)
	}
	if len(events) > 0 {
		sub.deliverBatch(events, c.done)
	}
	clear(events) // never pin delivered events in the reused buffer
	c.replayEvents = events[:0]
	if bad != nil {
		c.replayCorrupt.Add(1)
		sub.fail(fmt.Errorf("broker: replay envelope after record %d: %w", sub.replay.lastSeq.Load(), bad))
		_ = c.Unsubscribe(sub) // closes the ring, stops the broker-side stream (best effort)
	}
}

// dispatchTargets resolves the subscriptions matching a concrete topic.
// The cache is readLoop-private and epoch-validated: a hit costs no
// lock at all; the trie walk under c.mu happens once per topic per
// subscription-set epoch. A last-topic memo skips even the map for
// single-stream traffic (a media stream repeats one topic for
// thousands of events).
func (c *Client) dispatchTargets(t string) []*Subscription {
	epoch := c.routeEpoch.Load()
	if epoch != c.cacheEpoch {
		clear(c.routeCache)
		c.cacheEpoch = epoch
		c.lastValid = false
	}
	if c.lastValid && t == c.lastTopic {
		return c.lastTargets
	}
	targets, ok := c.routeCache[t]
	if !ok {
		c.mu.Lock()
		c.subs.MatchFunc(t, func(s *Subscription) {
			targets = append(targets, s)
		})
		c.mu.Unlock()
		if len(c.routeCache) < clientRouteCacheBound {
			c.routeCache[t] = targets
		}
	}
	c.lastTopic, c.lastTargets, c.lastValid = t, targets, true
	return targets
}

// stageEvent appends e to the staged burst of every matching
// subscription, resolving targets once per topic per burst. The staging
// slot lives on the Subscription itself (generation-stamped), so
// staging is O(1) per (event, target) with no map.
func (c *Client) stageEvent(e *event.Event) {
	for _, sub := range c.dispatchTargets(e.Topic) {
		if sub.stageGen != c.stageGen {
			sub.stageGen = c.stageGen
			sub.stageIdx = len(c.stageSubs)
			c.stageSubs = append(c.stageSubs, sub)
			if len(c.stageItems) < len(c.stageSubs) {
				c.stageItems = append(c.stageItems, nil)
			}
		}
		c.stageItems[sub.stageIdx] = append(c.stageItems[sub.stageIdx], e)
	}
}

// flushStaged hands every staged burst to its subscription — one ring
// lock and one wakeup per subscription — and resets the stage for the
// next burst.
func (c *Client) flushStaged() {
	for i, sub := range c.stageSubs {
		items := c.stageItems[i]
		sub.deliverBatch(items, c.done)
		// Clear staged references so the reused buffers never pin events.
		clear(items)
		c.stageItems[i] = items[:0]
	}
	clear(c.stageSubs)
	c.stageSubs = c.stageSubs[:0]
	c.stageGen++
}

// dispatchStaged delivers a pre-assembled burst for one topic: stage
// every event, then flush. Used by the per-event path with a one-event
// burst.
func (c *Client) dispatchStaged(events []*event.Event) {
	for _, e := range events {
		c.stageEvent(e)
	}
	c.flushStaged()
}

func (c *Client) acceptReliable(rseq uint64) (cum uint64, fresh bool) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if rseq <= c.recvCum {
		return c.recvCum, false
	}
	if _, dup := c.ahead[rseq]; dup {
		return c.recvCum, false
	}
	c.ahead[rseq] = struct{}{}
	for {
		if _, ok := c.ahead[c.recvCum+1]; !ok {
			break
		}
		delete(c.ahead, c.recvCum+1)
		c.recvCum++
	}
	return c.recvCum, true
}

// teardown closes every subscription ring after the conn dies.
func (c *Client) teardown() {
	c.once.Do(func() { close(c.done) })
	c.closedFlag.Store(true)
	c.setState(StateClosed)
	c.mu.Lock()
	c.closed = true
	subs := make([]*Subscription, 0, len(c.subSet))
	for s := range c.subSet {
		subs = append(subs, s)
	}
	clear(c.subSet)
	clear(c.replays)
	clear(c.replayWait)
	c.subs = topic.NewTrie[*Subscription]()
	c.routeEpoch.Add(1)
	c.mu.Unlock()
	for _, s := range subs {
		s.closeRing()
	}
}

// Close disconnects the client and closes all subscription rings.
// done closes first: the read loop can be blocked delivering a
// reliable event into an abandoned subscription's full ring, and it
// unblocks on done — closing it only from the read loop's own teardown
// would deadlock the wait below.
func (c *Client) Close() error {
	c.once.Do(func() { close(c.done) })
	conn, _ := c.currentConn()
	var err error
	if conn != nil {
		err = conn.Close()
	}
	c.wg.Wait()
	return err
}
