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

// popState reports the outcome of a non-blocking popBatch.
type popState int

const (
	popOK     popState = iota // at least one item was returned
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
// popBatch returns the ack and credit slots first, then reliable items,
// then best-effort ones. The queue never blocks a consumer: every push
// and the close signal the session's writer pool through onSignal, and
// the pool drains it.
type sendQueue struct {
	mu     sync.Mutex
	rel    ring[outItem]
	be     ring[outItem]
	beMax  int // best-effort lane bound
	closed bool
	drops  uint64

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

	// onSignal (set by session.bindPool before the session starts;
	// immutable after) wakes the consumer: it arms the session on its
	// writer pool's ready list and reports whether a wakeup was actually
	// deposited (false when the session is already armed). A queue with
	// no pool bound signals nothing.
	onSignal func() bool

	// wakeups counts deposited wakeups (pool arms that won the CAS).
	// Together with pushLocks it instruments the batching contract: one
	// lock, one wakeup per session per burst.
	wakeups atomic.Uint64
}

func newSendQueue(bestEffortDepth int) *sendQueue {
	if bestEffortDepth <= 0 {
		bestEffortDepth = 1
	}
	return &sendQueue{beMax: bestEffortDepth}
}

func (q *sendQueue) signal() {
	if q.onSignal != nil && q.onSignal() {
		q.wakeups.Add(1)
	}
}

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
	if q.be.len() == q.beMax {
		// Drop oldest.
		if old := q.be.pop(); old.e != nil && !isControlTopic(old.e.Topic) {
			q.beDataEvicted.Add(1)
		}
		q.drops++
		dropped = true
	}
	q.be.push(it)
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
	q.rel.push(it)
	q.mu.Unlock()
	q.signal()
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
	for n < max && q.rel.len() > 0 {
		buf = append(buf, q.rel.pop())
		n++
	}
	for n < max && q.be.len() > 0 {
		buf = append(buf, q.be.pop())
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

// close wakes the consumer; popBatch drains remaining events before it
// reports popClosed.
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
	return q.rel.len() + q.be.len()
}
