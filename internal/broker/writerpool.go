package broker

import (
	"sync"
	"sync/atomic"
	"time"
)

// writerPool drains a shard of sessions' send queues from one goroutine,
// and it is the only code that drains a send queue. The broker runs one
// shared pool per GOMAXPROCS — O(cores) writers instead of O(sessions),
// which is what lets the egress side scale with cores instead of with
// the Go scheduler's appetite for runnable goroutines — plus a private
// pool for each session whose conn blocks its sender (Broker.bindWriter).
//
// Scheduling is a classic dirty-flag ready list. Each session carries a
// scheduled flag; the queue's signal hook CAS-arms it and appends the
// session to the pool's FIFO exactly once per quiet→ready transition, so
// a burst costs each session one wakeup (a burst's pushBatch deposits at
// most one ready entry, later pushes while armed deposit none). The pool
// goroutine clears the flag *before* draining, so a push that arrives
// mid-service re-arms and re-enqueues — no lost wakeups, at worst one
// spurious empty service.
//
// Each session keeps its own persistent outSink (Batcher and buffers
// live as long as the session), touched only by its owning pool
// goroutine; sessions are bound to exactly one pool for life, so sink
// state needs no locking.
type writerPool struct {
	b *Broker

	// notify carries at most one wakeup token for the ready list.
	notify chan struct{}
	// done is closed after the pool's sessions closed their queues — by
	// Broker.Stop for a shared pool, by session.close for a private one;
	// the pool then drains the remaining ready entries (each closed queue
	// flushes through popClosed) before exiting.
	done chan struct{}

	mu    sync.Mutex
	ready ring[*session] // armed sessions awaiting service

	// drain is the pool's reusable popBatch buffer.
	drain []outItem

	// Occupancy instrumentation, read by WriterPoolStats: services
	// performed and events drained through this pool. clogs counts
	// clog-parks — services cut short because a session's consumer
	// stopped draining and its sink could not accept more without
	// blocking.
	services atomic.Uint64
	drained  atomic.Uint64
	clogs    atomic.Uint64
}

// poolServiceBatches bounds how many popBatch drains one service may
// perform before the session is re-enqueued at the tail: a firehose
// session hands the goroutine back so its pool siblings are never
// starved, at a cost of one CAS + list append per quantum.
const poolServiceBatches = 4

// clogRetry is how soon a session parked on consumer backpressure (its
// sink's non-blocking flush could not empty) is retried. Tight, because
// polling latency here is how late a clogged session resumes after its
// consumer frees pipe space.
const clogRetry = 100 * time.Microsecond

// lingerSweepEvery bounds how many services a busy pool performs before
// visiting its parked list: a clogged session whose producers went
// quiet is retried even while the ready list never empties.
const lingerSweepEvery = 64

func newWriterPool(b *Broker) *writerPool {
	return &writerPool{
		b:      b,
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
}

// wake arms s and appends it to the ready list once per quiet→ready
// transition. It reports whether a wakeup was actually deposited (the
// instrumented single-wakeup-per-burst contract counts these).
func (wp *writerPool) wake(s *session) bool {
	if !s.scheduled.CompareAndSwap(false, true) {
		return false // already armed; an earlier wakeup covers this push
	}
	wp.mu.Lock()
	wp.ready.push(s)
	wp.mu.Unlock()
	select {
	case wp.notify <- struct{}{}:
	default:
	}
	return true
}

// next pops the ready-list head, or nil when idle.
func (wp *writerPool) next() *session {
	wp.mu.Lock()
	defer wp.mu.Unlock()
	if wp.ready.len() == 0 {
		return nil
	}
	return wp.ready.pop()
}

// run is the pool goroutine: service ready sessions, linger over
// non-empty sinks when FlushInterval allows or a consumer clogged,
// drain everything on shutdown. It calls wg.Done on exit.
func (wp *writerPool) run(wg *sync.WaitGroup) {
	defer wg.Done()
	var lingerTimer *time.Timer
	var linger []*session // sessions holding a non-empty sink: coalescing or clogged
	sinceSweep := 0
	for {
		if s := wp.next(); s != nil {
			wp.service(s, &linger)
			// A busy pool must still visit the parked list now and then:
			// a clogged session whose producers went quiet would
			// otherwise strand its sink until the ready list empties.
			if sinceSweep++; sinceSweep >= lingerSweepEvery && len(linger) > 0 {
				sinceSweep = 0
				linger, _ = wp.sweepLinger(linger)
			}
			continue
		}
		sinceSweep = 0
		// Idle. Flush parked sinks whose window expired; keep the rest
		// armed on a timer so batching under light load still bounds
		// latency at FlushInterval.
		if len(linger) > 0 {
			var next time.Time
			linger, next = wp.sweepLinger(linger)
			if len(linger) > 0 {
				if lingerTimer == nil {
					lingerTimer = time.NewTimer(time.Until(next))
				} else {
					lingerTimer.Reset(time.Until(next))
				}
				select {
				case <-wp.notify:
					if !lingerTimer.Stop() {
						<-lingerTimer.C
					}
				case <-lingerTimer.C:
				case <-wp.done:
					if !lingerTimer.Stop() {
						<-lingerTimer.C
					}
					wp.shutdown(linger)
					return
				}
				continue
			}
		}
		select {
		case <-wp.notify:
		case <-wp.done:
			wp.shutdown(linger)
			return
		}
	}
}

// sweepLinger visits the parked list: sinks whose window expired flush
// (non-blocking where the sink supports it — a still-clogged session is
// re-parked with a short retry), emptied entries drop off, and a
// session whose queue grew backlog while parked is re-woken so the
// drain resumes. Returns the remaining list and its earliest deadline.
func (wp *writerPool) sweepLinger(linger []*session) ([]*session, time.Time) {
	now := time.Now()
	var next time.Time
	kept := linger[:0]
	for _, s := range linger {
		switch {
		case s.writerDone:
			s.lingering = false
			continue
		case s.sink == nil || s.sink.pending() == 0:
			s.lingering = false
			wp.rewake(s)
			continue
		case !s.lingerAt.After(now):
			done, err := s.sink.flushIdle()
			if err != nil {
				s.lingering = false
				wp.fail(s)
				continue
			}
			if done {
				s.lingering = false
				wp.rewake(s)
				continue
			}
			// Still clogged; retry shortly.
			s.lingerAt = now.Add(clogRetry)
		}
		kept = append(kept, s)
		if next.IsZero() || s.lingerAt.Before(next) {
			next = s.lingerAt
		}
	}
	for i := len(kept); i < len(linger); i++ {
		linger[i] = nil
	}
	return kept, next
}

// rewake re-arms a session leaving the parked list that still has queue
// backlog (possible when it parked on a clogged sink mid-drain and its
// producers then went quiet, so no push will re-arm it).
func (wp *writerPool) rewake(s *session) {
	if s.queue.depth() > 0 {
		wp.wake(s)
	}
}

// shutdown performs the final drain: every remaining ready session is
// serviced (closed queues empty through popClosed and flush their
// sinks — reliable-flush-on-close), then lingering sinks flush. By the
// time Broker.Stop closes done every session has stopped and closed its
// queue, so no new ready entries can arrive that matter.
func (wp *writerPool) shutdown(linger []*session) {
	for {
		s := wp.next()
		if s == nil {
			break
		}
		wp.service(s, nil)
	}
	for _, s := range linger {
		if s != nil && !s.writerDone && s.sink != nil && s.sink.pending() > 0 {
			_ = s.sink.flush()
		}
	}
}

// service drains one session's queue into its sink: batch pops under
// one lock, immediate flush behind reliable items, error →
// close-and-discard. linger is the pool's
// coalescing list; nil (during shutdown) flushes immediately instead of
// lingering.
func (wp *writerPool) service(s *session, linger *[]*session) {
	if s.writerDone {
		s.scheduled.Store(false)
		return
	}
	// Disarm before draining: a push landing after this line re-arms and
	// re-enqueues, so the final pop below can never strand traffic.
	s.scheduled.Store(false)
	if s.sink == nil {
		s.sink = s.newOutSink()
	}
	wp.services.Add(1)
	cfg := wp.b.cfg
	drained := 0
	defer func() { wp.drained.Add(uint64(drained)) }()
	for round := 0; round < poolServiceBatches; round++ {
		if linger != nil {
			ok, err := s.sink.ready()
			if err != nil {
				wp.fail(s)
				return
			}
			if !ok {
				// Clogged consumer: park for a short retry instead of
				// blocking the pool goroutine on this session's conn (its
				// siblings' egress rides the same goroutine) or
				// re-enqueueing (which would spin the ready list while the
				// conn stays full). scheduled is already clear, so under
				// load the next push re-arms the session anyway.
				wp.clogs.Add(1)
				wp.park(s, linger, clogRetry)
				return
			}
		}
		var st popState
		wp.drain = wp.drain[:0]
		wp.drain, st = s.queue.popBatch(wp.drain, maxBurst)
		switch st {
		case popOK:
			for _, it := range wp.drain {
				if err := s.sink.add(it); err != nil {
					clear(wp.drain)
					wp.fail(s)
					return
				}
				if it.reliable {
					// Signalling and acks flush as soon as the reliable
					// lane drains; they never linger in user space.
					if err := s.sink.flush(); err != nil {
						clear(wp.drain)
						wp.fail(s)
						return
					}
					if it.frame != nil {
						s.noteFlushed(it.frame.RSeq())
					}
				}
			}
			drained += len(wp.drain)
			wp.b.ctr.eventsOut.Add(uint64(len(wp.drain)))
			clear(wp.drain) // never pin events in the reused buffer
		case popEmpty:
			if s.sink.pending() > 0 {
				if cfg.FlushInterval > 0 && linger != nil {
					wp.park(s, linger, cfg.FlushInterval)
					return
				}
				if linger == nil {
					// Shutdown drain: the final flush may block; conn
					// teardown unblocks it if the consumer is gone.
					if err := s.sink.flush(); err != nil {
						wp.fail(s)
					}
					return
				}
				done, err := s.sink.flushIdle()
				if err != nil {
					wp.fail(s)
					return
				}
				if !done {
					// Consumer backpressure at idle: park for retry.
					wp.clogs.Add(1)
					wp.park(s, linger, clogRetry)
				}
			}
			return
		case popClosed:
			// Graceful drain: whatever reached the sink goes out before
			// the session is finalized (the conn may already be closed on
			// abortive shutdown, in which case the error is moot).
			_ = s.sink.flush()
			s.writerDone = true
			return
		}
	}
	// Quantum exhausted with traffic possibly remaining: hand the slot
	// back so pool siblings get served, re-arming this session at the
	// tail (the CAS fails harmlessly if a producer already re-armed it).
	wp.wake(s)
}

// park registers s on the pool's coalescing/retry list with the given
// window, unless it is already parked (an earlier deadline stands).
func (wp *writerPool) park(s *session, linger *[]*session, d time.Duration) {
	if !s.lingering {
		s.lingering = true
		s.lingerAt = time.Now().Add(d)
		*linger = append(*linger, s)
	}
}

// fail closes the session and discards its remaining queue so close()
// can complete.
func (wp *writerPool) fail(s *session) {
	s.writerDone = true
	s.close()
	for {
		var st popState
		wp.drain, st = s.queue.popBatch(wp.drain[:0], maxBurst)
		clear(wp.drain)
		if st != popOK {
			return
		}
	}
}

// WriterPoolStat is one pool's occupancy snapshot, showing how egress
// work spreads across pools.
type WriterPoolStat struct {
	Services uint64 // ready-list services performed
	Drained  uint64 // events drained through this pool
}

// WriterPoolStats returns per-pool occupancy counters of the shared
// pools (private pools are not included).
func (b *Broker) WriterPoolStats() []WriterPoolStat {
	out := make([]WriterPoolStat, len(b.pools))
	for i, p := range b.pools {
		out[i] = WriterPoolStat{
			Services: p.services.Load(),
			Drained:  p.drained.Load(),
		}
	}
	return out
}
