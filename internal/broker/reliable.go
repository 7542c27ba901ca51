package broker

import (
	"sync"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
)

// defaultReliableWindow bounds both halves of hop-by-hop reliability: a
// sender holds at most this many unacknowledged events before it drops
// the laggard, so a legitimate sender never tags an rseq more than this
// far above the receiver's cumulative floor, and a receiver drops
// anything further ahead unrouted.
const defaultReliableWindow = 4096

// relEntry tracks one reliable event awaiting acknowledgement. At most
// one of e/frame is set: non-framed sessions retransmit the decoded
// rseq-tagged event, framed sessions retransmit the rseq-patched frame
// (the encoding is never redone after the initial send). An entry with
// neither stands for an rseq this session never sent itself (see
// padWindow); it is never retransmitted or salvaged. env is set only
// for a replay envelope whose frame a pump built in a pooled buffer;
// handleAck decides whether the buffer goes back to envelopePool.
type relEntry struct {
	e        *event.Event
	frame    *event.Frame
	env      *envelopeBuf
	lastSend time.Time
	attempts int
}

// item returns the queue item that (re)sends this entry.
func (r *relEntry) item() outItem {
	return outItem{e: r.e, frame: r.frame, reliable: true}
}

// sendReliable tags e with this session's next rseq and enqueues it on
// the never-dropped lane.
func (s *session) sendReliable(e *event.Event) {
	s.enqueueReliable(e, nil, nil, nil, 0)
}

// sendReliableFrom is sendReliable with an optional shared frame source.
func (s *session) sendReliableFrom(e *event.Event, fs *frameSource) {
	s.enqueueReliable(e, fs, nil, nil, 0)
}

// enqueueReliable is the one reliable send: take the next rseq (or
// re-use at, for a resumed window), build the entry that goes out now
// and retransmits later, and push it on the never-dropped lane. On
// framed sessions the entry is a frame whose trailing rseq slot carries
// the tag, so nothing is re-encoded and no receive arena is pinned: a
// frame shared across a fan-out (fs) is tagged on a copy, one memmove
// per target; a frame only this send holds — owned (the replay lane
// built it and gives it up, with env when its buffer is a pooled one),
// or e encoded here — is stamped in place. Non-framed (in-process)
// sessions keep a deep copy of e, which also detaches the entry from
// whatever buffer e's payload aliases.
//
// The push happens under relMu, so first sends reach the reliable lane
// in rseq order — the order the writer flushes them in, which is what
// lets one high-water mark (relFlushed) say every first send at or
// below it is off the wire.
func (s *session) enqueueReliable(e *event.Event, fs *frameSource, owned *event.Frame, env *envelopeBuf, at uint64) {
	s.relMu.Lock()
	rseq := at
	if at == 0 {
		if s.window.len() >= s.b.cfg.reliableWindow {
			// The remote stopped acking; disconnecting is the only safe move
			// that doesn't grow memory without bound.
			s.relMu.Unlock()
			s.b.Metrics().Counter("broker.reliable_overflow").Inc()
			s.close()
			return
		}
		s.nextRSeq++
		rseq = s.nextRSeq
	}
	entry := relEntry{env: env, lastSend: time.Now(), attempts: 1}
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
	s.padWindow(rseq - 1)
	s.window.push(entry)
	s.relOrder.push(rseq)
	s.queue.pushItem(entry.item())
	s.relMu.Unlock()
}

// padWindow extends the window with empty entries until it covers every
// rseq up to upTo, keeping slot i at rseq ackFloor+1+i. The gaps it
// fills are rseqs this session never sent: a counter seeded ahead of
// the window, or a salvaged entry that failed to decode on resume.
// Callers hold relMu (or own the session before it starts).
func (s *session) padWindow(upTo uint64) {
	for s.ackFloor+uint64(s.window.len()) < upTo {
		s.window.push(relEntry{})
	}
}

// handleAck applies a cumulative acknowledgement by popping the newly
// acknowledged prefix of the window: cost is proportional to the events
// acked, not the window size. A popped replay envelope's buffer goes
// back to the pool when nothing can read it any more: it was sent once
// (attempts == 1 — no retransmission ever queued a second reference)
// and the writer has flushed its rseq. The ack alone proves neither: it
// is clamped only to nextRSeq, so a remote may ack what it never got.
func (s *session) handleAck(cum uint64) {
	s.relMu.Lock()
	defer s.relMu.Unlock()
	flushed := s.relFlushed.Load()
	recycled := 0
	for cum = min(cum, s.nextRSeq); s.ackFloor < cum; s.ackFloor++ {
		if ent := s.window.pop(); ent.env != nil && ent.attempts == 1 && s.ackFloor < flushed {
			envelopePool.Put(ent.env)
			recycled++
		}
	}
	if recycled > 0 {
		s.b.ctr.recycled.Add(uint64(recycled))
	}
}

// noteFlushed advances the session's flushed high-water mark to rseq.
// Only the session's writer pool goroutine calls it, with the highest
// frame rseq of a batch, after the flush that ends the batch returned
// without error: FrameConn retains no frame past SendFrames, so every
// first send at or below the mark is no longer read.
func (s *session) noteFlushed(rseq uint64) {
	if rseq > s.relFlushed.Load() {
		s.relFlushed.Store(rseq)
	}
}

// unackedLen reports the reliable-window occupancy.
func (s *session) unackedLen() int {
	s.relMu.Lock()
	defer s.relMu.Unlock()
	return s.window.len()
}

// retransmit re-enqueues unacked reliable events older than rto. It
// reports whether the session should be closed (too many attempts).
// Cost is proportional to the expired prefix of the send-order ring
// (plus lazily reaped acked rseqs), not the window size, so large
// reliable windows stay cheap on the housekeeping timer path.
func (s *session) retransmit(now time.Time, rto time.Duration, maxAttempts int) bool {
	s.relMu.Lock()
	defer s.relMu.Unlock()
	for s.relOrder.len() > 0 {
		rseq := *s.relOrder.at(0)
		if rseq <= s.ackFloor {
			s.relOrder.pop() // acked since its last send; reap
			continue
		}
		entry := s.window.at(int(rseq - s.ackFloor - 1))
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
	return false
}

// parkedEvent is one salvaged reliable event, kept with its original
// per-hop sequence so a resumed session can re-send it under the same
// rseq (exactly-once across the reconnect).
type parkedEvent struct {
	rseq uint64
	e    *event.Event
}

// reliableState is a session's reliable window as it outlives the
// session: the send counters, the receive floor and the unacknowledged
// events in rseq order.
type reliableState struct {
	nextRSeq, ackFloor, recvCum uint64
	unacked                     []parkedEvent
}

// salvageReliable snapshots the reliable window of a dying session,
// under one lock hold so nextRSeq covers every salvaged rseq and
// ackFloor is below it. The window is already in rseq order. Frame-backed
// entries are decoded once here (link death is rare) and the stored
// events' tags are stripped; the rseq travels alongside. A decoded
// event's payload aliases its frame's buffer, so each entry gives up
// its claim on envelopePool: the read loop may still be applying acks,
// and a pooled buffer would be refilled under the parked event.
func (s *session) salvageReliable() reliableState {
	s.relMu.Lock()
	defer s.relMu.Unlock()
	st := reliableState{nextRSeq: s.nextRSeq, ackFloor: s.ackFloor, recvCum: s.recv.floor()}
	for i := range s.window.len() {
		ent := s.window.at(i)
		ent.env = nil
		e := ent.e
		if ent.frame != nil {
			dec, err := ent.frame.Decode()
			if err != nil {
				continue
			}
			e = dec
		}
		if e != nil {
			st.unacked = append(st.unacked, parkedEvent{rseq: s.ackFloor + 1 + uint64(i), e: stripRSeq(e)})
		}
	}
	return st
}

// resumeReliable continues a parked window on its resumed successor:
// the counters are seeded and every unacked event is requeued under its
// ORIGINAL rseq, so it slots back into the window exactly where it was
// and the client's cumulative dedup delivers it at most once even when
// the ack for the first delivery was lost in the disconnect. Must run
// before the session is registered (no concurrent senders yet).
func (s *session) resumeReliable(st reliableState) {
	s.nextRSeq, s.ackFloor = st.nextRSeq, st.ackFloor
	s.recv.reset(st.recvCum)
	for _, pe := range st.unacked {
		s.enqueueReliable(pe.e, nil, nil, nil, pe.rseq)
	}
	s.padWindow(s.nextRSeq)
}

// recvWindow is the receive half of hop-by-hop reliability, shared by
// broker sessions and clients: it deduplicates rseq-tagged events and
// tracks the cumulative floor to acknowledge. The zero value is ready.
type recvWindow struct {
	mu  sync.Mutex
	cum uint64 // highest contiguous rseq delivered
	// ahead holds the rseqs accepted above the contiguous point: with
	// their events when the receiver delivers in rseq order
	// (acceptInOrder), nil when it delivers on arrival (accept).
	ahead map[uint64]*event.Event
}

// accept returns the cumulative ack to send for an rseq-tagged event
// and whether the event is new, to be delivered on arrival.
func (w *recvWindow) accept(rseq uint64) (cum uint64, fresh bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, fresh = w.insertLocked(rseq, nil, nil)
	return w.cum, fresh
}

// acceptInOrder is accept for a receiver that takes the reliable lane in
// rseq order: a fresh event above a gap (its predecessor was lost and
// awaits retransmission) is held, and the event that fills the gap
// comes back followed by every held event it releases, appended to out
// in rseq order. A duplicate or refused rseq appends nothing.
func (w *recvWindow) acceptInOrder(e *event.Event, out []*event.Event) (uint64, []*event.Event) {
	w.mu.Lock()
	defer w.mu.Unlock()
	out, _ = w.insertLocked(e.RSeq, e, out)
	return w.cum, out
}

// insertLocked records rseq, carrying e (nil for accept), and reports
// whether it was fresh. An rseq more than defaultReliableWindow above
// the floor is one no legitimate sender tags; it is refused like a
// duplicate, so ahead never holds more than the window. A fresh rseq
// above a gap waits in ahead; the next contiguous one moves the floor
// over itself and every rseq waiting behind it, appending their events
// to out in order.
func (w *recvWindow) insertLocked(rseq uint64, e *event.Event, out []*event.Event) (_ []*event.Event, fresh bool) {
	if rseq <= w.cum || rseq > w.cum+defaultReliableWindow {
		return out, false
	}
	if _, dup := w.ahead[rseq]; dup {
		return out, false
	}
	if rseq != w.cum+1 {
		if w.ahead == nil {
			w.ahead = make(map[uint64]*event.Event)
		}
		w.ahead[rseq] = e
		return out, true
	}
	for {
		w.cum++
		if e != nil {
			out = append(out, e)
		}
		next, ok := w.ahead[w.cum+1]
		if !ok {
			return out, true
		}
		delete(w.ahead, w.cum+1)
		e = next
	}
}

// floor returns the highest contiguous rseq delivered.
func (w *recvWindow) floor() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cum
}

// reset restarts the window at floor cum, forgetting everything ahead.
func (w *recvWindow) reset(cum uint64) {
	w.mu.Lock()
	w.cum = cum
	clear(w.ahead)
	w.mu.Unlock()
}

// stripRSeq returns e without its per-hop sequence tag (a shallow
// copy), never mutating the original, which other sessions may share.
func stripRSeq(e *event.Event) *event.Event {
	c := *e
	c.RSeq = 0
	return &c
}
