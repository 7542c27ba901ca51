package broker

import (
	"sync"
	"sync/atomic"

	"github.com/globalmmcs/globalmmcs/internal/event"
)

// outItem is one outbound unit on a session's send queue: a decoded
// event, a pre-encoded frame, or both. Best-effort traffic bound for a
// framed wire conn shares the encode-once frame produced at route time;
// reliable traffic on framed conns carries its rseq-patched copy of the
// shared encoding.
type outItem struct {
	// e is the decoded event; nil only for frame-backed reliable items on
	// framed conns (whose writer never needs the decoded form).
	e *event.Event
	// frame is the immutable pre-encoded form; nil when the writer must
	// marshal itself (un-tagged control traffic, or non-framed conns).
	frame *event.Frame
	// reliable marks items on the never-dropped lane; the writer flushes
	// its batch immediately after them so signalling never lingers in a
	// user-space buffer.
	reliable bool
}

// popState reports the outcome of a non-blocking pop.
type popState int

const (
	popOK     popState = iota // an item was returned
	popEmpty                  // queue open but momentarily empty
	popClosed                 // queue closed and fully drained
)

// sendQueue is the per-session outbound queue. It has two lanes:
//
//   - a reliable lane that is never dropped (bounded by the reliable
//     window; the session disconnects the peer before it overflows), and
//   - a bounded best-effort lane that drops its oldest entry on overflow,
//     which is the correct policy for real-time media.
//
// tryPop returns reliable items first. The queue is signal-based rather
// than condvar-based so the writer can multiplex "more traffic arrived"
// against flush timers.
type sendQueue struct {
	mu      sync.Mutex
	rel     []outItem // ring storage, doubled when full
	relHead int
	relLen  int
	be      []outItem // ring storage
	beHead  int
	beLen   int
	closed  bool
	drops   uint64

	// The pending-cumulative ack slot: the reverse path of hop-by-hop
	// reliability queues at most one ack here, and later acks overwrite
	// it rather than appending. Acks are cumulative, so only the newest
	// floor matters — if the writer falls behind on a busy bidirectional
	// link (a mesh peer), consecutive bursts' acks collapse into one
	// control event instead of queueing per burst.
	ackDue        bool
	ackCum        uint64
	acksCoalesced uint64

	// The pending flow-control grant slot, the credit twin of the ack
	// slot: grants are cumulative consumption counts, so only the newest
	// matters and later grants overwrite rather than append. Riding a
	// dedicated slot (drained ahead of both lanes) means a grant can
	// never be displaced out of the best-effort ring by the very
	// congestion it exists to relieve.
	creditDue bool
	creditCum uint64

	// beDataEvicted counts best-effort *data* items displaced from the
	// ring (control items excluded). The credit window subtracts it from
	// the staged count so events shed locally never pin remote credit.
	beDataEvicted atomic.Uint64

	// pushLocks counts producer-side mutex acquisitions. It instruments
	// the batching contract — a burst fanned to a session costs one lock
	// acquisition (pushBatch), not one per event — and is asserted by
	// regression tests.
	pushLocks atomic.Uint64

	// notify carries at most one wakeup token; every push and close
	// deposits one, the single consumer drains to empty before waiting.
	notify chan struct{}

	// onSignal, when set (before the session starts; immutable after),
	// replaces the notify-channel deposit: writer-pool mode routes the
	// wakeup to the pool's ready list instead of a dedicated writer
	// goroutine. It reports whether a wakeup was actually deposited
	// (false when the consumer is already armed).
	onSignal func() bool

	// wakeups counts deposited wakeup tokens (channel sends that landed,
	// or pool arms that won the CAS). Together with pushLocks it
	// instruments the batching contract: one lock, one wakeup per
	// session per burst.
	wakeups atomic.Uint64
}

func newSendQueue(bestEffortDepth int) *sendQueue {
	if bestEffortDepth <= 0 {
		bestEffortDepth = 1
	}
	return &sendQueue{
		be:     make([]outItem, bestEffortDepth),
		notify: make(chan struct{}, 1),
	}
}

func (q *sendQueue) signal() {
	if q.onSignal != nil {
		if q.onSignal() {
			q.wakeups.Add(1)
		}
		return
	}
	select {
	case q.notify <- struct{}{}:
		q.wakeups.Add(1)
	default:
	}
}

// waitCh returns the channel the consumer blocks on between drains.
func (q *sendQueue) waitCh() <-chan struct{} { return q.notify }

// pushBestEffort enqueues e (with its optional shared frame), dropping
// the oldest queued event if full. It reports whether the queue accepted
// the event without dropping.
func (q *sendQueue) pushBestEffort(e *event.Event, frame *event.Frame) bool {
	q.pushLocks.Add(1)
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	dropped := q.appendBestEffortLocked(outItem{e: e, frame: frame})
	q.mu.Unlock()
	q.signal()
	return !dropped
}

// appendBestEffortLocked inserts one item into the best-effort ring,
// displacing the oldest entry when full. It reports whether an entry was
// dropped. Callers hold q.mu.
func (q *sendQueue) appendBestEffortLocked(it outItem) (dropped bool) {
	if q.beLen == len(q.be) {
		// Drop oldest.
		if old := q.be[q.beHead]; old.e != nil && !isControlTopic(old.e.Topic) {
			q.beDataEvicted.Add(1)
		}
		q.be[q.beHead] = outItem{}
		q.beHead = (q.beHead + 1) % len(q.be)
		q.beLen--
		q.drops++
		dropped = true
	}
	q.be[(q.beHead+q.beLen)%len(q.be)] = it
	q.beLen++
	return dropped
}

// pushBatch enqueues a burst of best-effort items with one lock
// acquisition and one writer wakeup — the amortization that makes burst
// ingest cheap: a burst fanned out to N sessions costs N lock/signal
// pairs total, not N per event. It returns how many events were dropped
// (ring overflow, or the whole batch when the queue is closed).
func (q *sendQueue) pushBatch(items []outItem) int {
	if len(items) == 0 {
		return 0
	}
	q.pushLocks.Add(1)
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return len(items)
	}
	dropped := 0
	for _, it := range items {
		if q.appendBestEffortLocked(it) {
			dropped++
		}
	}
	q.mu.Unlock()
	q.signal()
	return dropped
}

// pushAck deposits a cumulative acknowledgement in the pending-ack slot,
// overwriting any ack already waiting there. The writer emits the slot
// (as one reliable ack event) ahead of both lanes on its next drain.
func (q *sendQueue) pushAck(cum uint64) {
	q.pushLocks.Add(1)
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	if q.ackDue {
		q.acksCoalesced++
	}
	q.ackDue = true
	if cum > q.ackCum {
		q.ackCum = cum
	}
	q.mu.Unlock()
	q.signal()
}

// takeAckLocked drains the pending-ack slot into an outItem. Callers
// hold q.mu and have checked q.ackDue.
func (q *sendQueue) takeAckLocked() outItem {
	q.ackDue = false
	return outItem{e: ackEvent(q.ackCum), reliable: true}
}

// pushCredit deposits a cumulative flow-control grant in the pending
// slot, overwriting any grant already waiting there.
func (q *sendQueue) pushCredit(cum uint64) {
	q.pushLocks.Add(1)
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.creditDue = true
	if cum > q.creditCum {
		q.creditCum = cum
	}
	q.mu.Unlock()
	q.signal()
}

// takeCreditLocked drains the pending-grant slot into an outItem.
// Callers hold q.mu and have checked q.creditDue. The item is marked
// reliable only so the writer flushes it immediately — timely grants
// are what keep a healthy link's window open.
func (q *sendQueue) takeCreditLocked() outItem {
	q.creditDue = false
	return outItem{e: creditEvent(q.creditCum), reliable: true}
}

// pushReliable enqueues e on the never-dropped lane.
func (q *sendQueue) pushReliable(e *event.Event) {
	q.pushItem(outItem{e: e, reliable: true})
}

// pushItem enqueues one pre-built item on the never-dropped lane. The
// reliable fan-out path uses it to queue rseq-patched frames directly.
func (q *sendQueue) pushItem(it outItem) {
	q.pushLocks.Add(1)
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.appendReliableLocked(it)
	q.mu.Unlock()
	q.signal()
}

// appendReliableLocked inserts one item at the tail of the reliable
// ring, doubling the storage when it is full: the lane is never shed,
// and the reliable window bounds how far it grows. Callers hold q.mu.
func (q *sendQueue) appendReliableLocked(it outItem) {
	if q.relLen == len(q.rel) {
		grown := make([]outItem, max(8, 2*len(q.rel)))
		n := copy(grown, q.rel[q.relHead:])
		copy(grown[n:], q.rel[:q.relHead])
		q.rel, q.relHead = grown, 0
	}
	q.rel[(q.relHead+q.relLen)%len(q.rel)] = it
	q.relLen++
}

// popReliableLocked removes the head of the reliable ring. Callers hold
// q.mu and have checked q.relLen > 0.
func (q *sendQueue) popReliableLocked() outItem {
	it := q.rel[q.relHead]
	q.rel[q.relHead] = outItem{}
	q.relHead = (q.relHead + 1) % len(q.rel)
	q.relLen--
	return it
}

// tryPop removes one item without blocking, preferring the pending ack
// slot, then the reliable lane.
func (q *sendQueue) tryPop() (outItem, popState) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.ackDue {
		return q.takeAckLocked(), popOK
	}
	if q.creditDue {
		return q.takeCreditLocked(), popOK
	}
	if q.relLen > 0 {
		return q.popReliableLocked(), popOK
	}
	if q.beLen > 0 {
		it := q.be[q.beHead]
		q.be[q.beHead] = outItem{}
		q.beHead = (q.beHead + 1) % len(q.be)
		q.beLen--
		return it, popOK
	}
	if q.closed {
		return outItem{}, popClosed
	}
	return outItem{}, popEmpty
}

// popBatch appends up to max queued items to buf under one lock
// acquisition — the consumer-side mirror of pushBatch — preferring the
// reliable lane. The state is popOK when anything was drained, popEmpty
// when the queue is open but empty, popClosed once closed and drained.
func (q *sendQueue) popBatch(buf []outItem, max int) ([]outItem, popState) {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	if n < max && q.ackDue {
		buf = append(buf, q.takeAckLocked())
		n++
	}
	if n < max && q.creditDue {
		buf = append(buf, q.takeCreditLocked())
		n++
	}
	for n < max && q.relLen > 0 {
		buf = append(buf, q.popReliableLocked())
		n++
	}
	for n < max && q.beLen > 0 {
		buf = append(buf, q.be[q.beHead])
		q.be[q.beHead] = outItem{}
		q.beHead = (q.beHead + 1) % len(q.be)
		q.beLen--
		n++
	}
	if n > 0 {
		return buf, popOK
	}
	if q.closed {
		return buf, popClosed
	}
	return buf, popEmpty
}

// pop blocks until an event is available or the queue closes. The second
// return is false once the queue is closed and drained.
func (q *sendQueue) pop() (*event.Event, bool) {
	for {
		it, st := q.tryPop()
		switch st {
		case popOK:
			return it.e, true
		case popClosed:
			return nil, false
		}
		<-q.notify
	}
}

// close wakes the consumer; tryPop drains remaining events first.
func (q *sendQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.signal()
}

// pushLockCount returns how many producer-side lock acquisitions the
// queue has seen (test instrumentation for the batching contract).
func (q *sendQueue) pushLockCount() uint64 { return q.pushLocks.Load() }

// wakeupCount returns how many consumer wakeups were actually deposited
// (test instrumentation for the batching contract — at most one per
// burst regardless of writer mode).
func (q *sendQueue) wakeupCount() uint64 { return q.wakeups.Load() }

// ackCoalesceCount returns how many acks were overwritten in the pending
// slot before the writer drained them (test instrumentation).
func (q *sendQueue) ackCoalesceCount() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.acksCoalesced
}

// dropCount returns how many best-effort events have been dropped.
func (q *sendQueue) dropCount() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.drops
}

// dataEvictedCount returns how many best-effort data events were
// displaced from the ring (lock-free; read by the credit admit path).
func (q *sendQueue) dataEvictedCount() uint64 { return q.beDataEvicted.Load() }

// depth returns the total queued events (both lanes).
func (q *sendQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.relLen + q.beLen
}
