package transport

import (
	"container/heap"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
)

// LinkProfile describes the emulated properties of a link direction. The
// zero value is a perfect link. Profiles substitute for the paper's 2003
// testbed (LAN propagation, JVM-era per-send host cost); see DESIGN.md §7.
type LinkProfile struct {
	// PropDelay is the fixed one-way propagation delay added to every
	// delivery.
	PropDelay time.Duration
	// Jitter adds a uniformly distributed extra delay in [0, Jitter).
	Jitter time.Duration
	// Loss is the probability in [0,1] that an event is silently dropped.
	Loss float64
	// SendCost blocks the *sender* for the given duration per event,
	// emulating per-send host service time (marshalling, syscall, copy on
	// period hardware). This is the knob that reproduces the JMF
	// reflector's saturation behaviour.
	SendCost time.Duration
	// Egress, if non-nil, serializes deliveries through a limiter shared
	// with other conns, emulating a host NIC that all fan-out traffic
	// leaves through.
	Egress *SharedLimiter
	// Seed makes loss and jitter deterministic; 0 derives a fixed default.
	Seed uint64
}

// SharedLimiter is a token-bucket serializer shared across conns,
// modelling a common egress link (e.g. the sending host's NIC). The zero
// value is unusable; create with NewSharedLimiter.
type SharedLimiter struct {
	mu       sync.Mutex
	byteTime float64 // seconds per byte
	nextFree time.Time
}

// NewSharedLimiter creates a limiter with the given rate in bytes/second.
func NewSharedLimiter(bytesPerSecond int64) *SharedLimiter {
	if bytesPerSecond <= 0 {
		panic("transport: shared limiter rate must be positive")
	}
	return &SharedLimiter{byteTime: 1 / float64(bytesPerSecond)}
}

// reserve books size bytes on the link and returns the time the last byte
// leaves.
func (l *SharedLimiter) reserve(now time.Time, size int) time.Time {
	tx := time.Duration(float64(size) * l.byteTime * float64(time.Second))
	l.mu.Lock()
	defer l.mu.Unlock()
	start := l.nextFree
	if start.Before(now) {
		start = now
	}
	l.nextFree = start.Add(tx)
	return l.nextFree
}

// SendBlocker marks conns whose Send/SendEvents deliberately block the
// calling goroutine (spin-wait host-cost emulation). The broker drains
// such conns through a private writer pool of their own instead of a
// shared one: the emulation models a synchronous per-connection
// device, and serializing many emulated links through one pool goroutine
// would compound their blocking costs into head-of-line delay that no
// real NIC exhibits.
type SendBlocker interface {
	// SendBlocks reports whether sends on this conn intentionally stall
	// the sender.
	SendBlocks() bool
}

// SendBlocks reports whether this profile charges sender-blocking cost
// (SendCost spins the sending goroutine; delay, loss and egress shaping
// ride the delay line without blocking the sender).
func (s *shapedConn) SendBlocks() bool { return s.profile.SendCost > 0 }

// zero reports whether the profile requires any shaping at all.
func (p LinkProfile) zero() bool {
	return p.PropDelay == 0 && p.Jitter == 0 && p.Loss == 0 && p.SendCost == 0 && p.Egress == nil
}

// needsDelayLine reports whether deliveries must be scheduled in time.
func (p LinkProfile) needsDelayLine() bool {
	return p.PropDelay > 0 || p.Jitter > 0 || p.Egress != nil
}

// Shape wraps c so that events sent through it experience the profile.
// Receiving is unaffected; wrap both ends for a symmetric link. If the
// profile is zero the conn is returned unchanged.
func Shape(c Conn, p LinkProfile) Conn {
	if p.zero() {
		return c
	}
	seed := p.Seed
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	s := &shapedConn{
		inner:   c,
		profile: p,
		rng:     rand.New(rand.NewPCG(seed, seed^0xDEADBEEF)),
	}
	if p.needsDelayLine() {
		s.line = newDelayLine(c)
	}
	if fc, ok := c.(FrameConn); ok {
		return &shapedFrameConn{shapedConn: s, fc: fc}
	}
	return s
}

type shapedConn struct {
	inner   Conn
	profile LinkProfile
	line    *delayLine

	mu  sync.Mutex
	rng *rand.Rand
}

var _ Conn = (*shapedConn)(nil)

func (s *shapedConn) Send(e *event.Event) error { return s.sendOne(e, nil) }

// sendOne applies the per-event shaping — loss, per-event host cost,
// delay scheduling — shared by Send and SendEvents. When collect is
// non-nil and the profile needs no delay line, surviving events are
// appended there (for a single batched forward) instead of being sent.
func (s *shapedConn) sendOne(e *event.Event, collect *[]*event.Event) error {
	p := s.profile
	if p.Loss > 0 {
		s.mu.Lock()
		drop := s.rng.Float64() < p.Loss
		s.mu.Unlock()
		if drop {
			return nil
		}
	}
	if p.SendCost > 0 {
		spinWait(p.SendCost)
	}
	if s.line == nil {
		if collect != nil {
			*collect = append(*collect, e)
			return nil
		}
		return s.inner.Send(e)
	}
	now := time.Now()
	due := now
	if p.Egress != nil {
		if t := p.Egress.reserve(now, len(e.Payload)+64); t.After(due) {
			due = t
		}
	}
	due = due.Add(p.PropDelay)
	if p.Jitter > 0 {
		s.mu.Lock()
		j := time.Duration(s.rng.Int64N(int64(p.Jitter)))
		s.mu.Unlock()
		due = due.Add(j)
	}
	return s.line.push(e, due)
}

var _ EventBatchConn = (*shapedConn)(nil)

// SendEvents transmits a batch through the emulated link: loss, per-event
// host cost and delay scheduling apply per event. Survivors are forwarded
// in one call when the inner conn batches.
func (s *shapedConn) SendEvents(events []*event.Event) error {
	if s.line != nil {
		for _, e := range events {
			if err := s.sendOne(e, nil); err != nil {
				return err
			}
		}
		return nil
	}
	surviving := make([]*event.Event, 0, len(events))
	for _, e := range events {
		if err := s.sendOne(e, &surviving); err != nil {
			return err
		}
	}
	if len(surviving) == 0 {
		return nil
	}
	return SendEvents(s.inner, surviving)
}

func (s *shapedConn) Recv() (*event.Event, error) { return s.inner.Recv() }

var _ BurstConn = (*shapedConn)(nil)

// RecvBurst passes burst receives through (receiving is never shaped;
// wrap both ends for a symmetric link).
func (s *shapedConn) RecvBurst(dst []*event.Event, max int) ([]*event.Event, error) {
	return RecvBurst(s.inner, dst, max)
}

// shapedFrameConn preserves the inner conn's FrameConn capability so
// shaped wire links still ride the encode-once batch path. The frame
// path models loss and per-frame SendCost; the delay line and egress
// limiter apply only to the decoded-event path, which is the one the
// emulated experiments shape.
type shapedFrameConn struct {
	*shapedConn
	fc FrameConn
}

var _ FrameConn = (*shapedFrameConn)(nil)

func (s *shapedFrameConn) SendFrames(frames [][]byte) error {
	p := s.profile
	if p.Loss == 0 && p.SendCost == 0 {
		return s.fc.SendFrames(frames)
	}
	surviving := make([][]byte, 0, len(frames))
	for _, f := range frames {
		if p.Loss > 0 {
			s.mu.Lock()
			drop := s.rng.Float64() < p.Loss
			s.mu.Unlock()
			if drop {
				continue
			}
		}
		if p.SendCost > 0 {
			spinWait(p.SendCost)
		}
		surviving = append(surviving, f)
	}
	if len(surviving) == 0 {
		return nil
	}
	return s.fc.SendFrames(surviving)
}

func (s *shapedConn) Close() error {
	if s.line != nil {
		s.line.stop()
	}
	return s.inner.Close()
}

func (s *shapedConn) Label() string { return s.inner.Label() }

// delayLine delivers events to an inner conn at their due time, preserving
// due-time order (ties broken by arrival order).
type delayLine struct {
	inner Conn
	in    chan timedEvent
	done  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
	seq   atomic.Uint64
}

type timedEvent struct {
	e   *event.Event
	due time.Time
	seq uint64
}

func newDelayLine(inner Conn) *delayLine {
	l := &delayLine{
		inner: inner,
		in:    make(chan timedEvent, 4096),
		done:  make(chan struct{}),
	}
	l.wg.Add(1)
	go l.run()
	return l
}

func (l *delayLine) push(e *event.Event, due time.Time) error {
	te := timedEvent{e: e, due: due, seq: l.seq.Add(1)}
	select {
	case l.in <- te:
		return nil
	case <-l.done:
		return ErrClosed
	}
}

func (l *delayLine) stop() {
	l.once.Do(func() { close(l.done) })
	l.wg.Wait()
}

func (l *delayLine) run() {
	defer l.wg.Done()
	var q timedHeap
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		// Deliver everything due.
		now := time.Now()
		for q.Len() > 0 && !q[0].due.After(now) {
			te := heap.Pop(&q).(timedEvent)
			if err := l.inner.Send(te.e); err != nil {
				return // downstream closed
			}
			now = time.Now()
		}
		if q.Len() == 0 {
			select {
			case te := <-l.in:
				heap.Push(&q, te)
			case <-l.done:
				return
			}
			continue
		}
		wait := time.Until(q[0].due)
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case te := <-l.in:
			heap.Push(&q, te)
		case <-timer.C:
		case <-l.done:
			return
		}
	}
}

type timedHeap []timedEvent

func (h timedHeap) Len() int { return len(h) }
func (h timedHeap) Less(i, j int) bool {
	if h[i].due.Equal(h[j].due) {
		return h[i].seq < h[j].seq
	}
	return h[i].due.Before(h[j].due)
}
func (h timedHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timedHeap) Push(x any)   { *h = append(*h, x.(timedEvent)) }
func (h *timedHeap) Pop() any {
	old := *h
	n := len(old)
	te := old[n-1]
	*h = old[:n-1]
	return te
}

// spinWait blocks for approximately d. Durations below the sleep
// granularity are busy-waited so that the emulated host cost actually
// occupies the calling goroutine (and a CPU), as the modelled 2003-era
// send path did.
const sleepGranularity = 200 * time.Microsecond

func spinWait(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	if d > sleepGranularity {
		time.Sleep(d - sleepGranularity/2)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}
