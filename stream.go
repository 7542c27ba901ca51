package globalmmcs

import (
	"context"
	"iter"
	"sync"
	"sync/atomic"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/metrics"
)

// DropPolicy selects what a Stream does with a new event when its
// delivery buffer is full because the consumer lags. The policy is
// applied where the event meets the full buffer — on the client's read
// loop, as the event arrives — so drops are counted whether or not
// anyone is in Recv.
type DropPolicy int

const (
	// DropOldest displaces the oldest buffered event to admit the new
	// one — the right policy for live media, where the freshest packet
	// is worth more than a stale one. This is the default.
	DropOldest DropPolicy = iota
	// DropNewest discards the incoming event and keeps what is already
	// buffered — the right policy when the earliest events matter most
	// (e.g. replay heads).
	DropNewest
	// Block never discards a reliable event: one that meets a full
	// buffer waits in a bounded overflow park of the same depth, and
	// past that the client's connection stops reading until the consumer
	// catches up — which delays every other stream on the same client,
	// and lets backpressure reach the broker's reliable sender.
	// Best-effort traffic does not wait for a slow consumer anywhere: at
	// a full buffer the oldest buffered best-effort event gives way to
	// the newest, as in every bounded queue upstream, and that is not
	// counted in Drops — under Block, Drops stays 0.
	Block
)

// StreamOption configures a subscription's delivery QoS at creation
// (Session.Chat, Session.Subscribe, Session.Events,
// Client.WatchPresence).
type StreamOption func(*streamConfig)

type streamConfig struct {
	buffer    int
	policy    DropPolicy
	policySet bool
	conflate  bool
	keyFn     any // func(T) any when set via WithConflationKey[T]
	lagNotify func(dropped uint64)

	replay     bool
	replayFrom uint64
}

// WithBuffer sets the stream's delivery buffer depth: the stream holds
// at most n undelivered events (plus the burst of up to 256 its
// receiver has already taken out to decode) before the drop policy
// applies. The buffer is the client-side subscription ring itself, not
// a queue behind it. Conflating streams and Chan add a channel of the
// same depth in front of it. n <= 0 keeps the stream's default (64 for
// chat and presence, 256 for media and raw events).
func WithBuffer(n int) StreamOption {
	return func(c *streamConfig) { c.buffer = n }
}

// WithDropPolicy selects the stream's full-buffer policy. The default
// is DropOldest (Block for replay streams).
func WithDropPolicy(p DropPolicy) StreamOption {
	return func(c *streamConfig) { c.policy = p; c.policySet = true }
}

// WithReplayFromEarliest turns the subscription into a replay
// subscription: the broker first streams the topic's recorded history
// from the earliest retained event, then hands off to live delivery
// exactly once — nothing is lost or duplicated across the switch. The
// node must record the subscribed pattern (WithRecording with exactly
// this pattern); CaughtUp on the stream signals the handoff. Replay
// streams default to the Block policy so history is never dropped
// client-side; an explicit WithDropPolicy overrides.
func WithReplayFromEarliest() StreamOption {
	return func(c *streamConfig) { c.replay = true; c.replayFrom = 0 }
}

// WithReplayFrom is WithReplayFromEarliest starting at a specific
// recorded sequence number instead of the earliest retained one (a
// sequence already reaped by retention clamps to the earliest).
func WithReplayFrom(seq uint64) StreamOption {
	return func(c *streamConfig) { c.replay = true; c.replayFrom = seq }
}

// WithConflation merges queued events that supersede each other while
// the consumer lags: for media streams, a newer packet from an SSRC
// replaces the queued one from the same SSRC, so a slow consumer skips
// ahead instead of replaying a backlog. Each merge counts as a drop.
// Conflation is itself a full-buffer policy and takes precedence over
// WithDropPolicy: merging is inherently lossy, so Block's
// nothing-dropped guarantee does not compose with it, and events
// without a conflation key (non-RTP traffic on a media topic) fall
// back to drop-oldest. Streams whose events carry no conflation key at
// all (chat, presence, raw events) ignore the option unless a key is
// supplied with WithConflationKey.
func WithConflation() StreamOption {
	return func(c *streamConfig) { c.conflate = true }
}

// WithConflationKey enables conflation keyed by fn, overriding the
// stream's built-in key (SSRC for media streams; none elsewhere): while
// the consumer lags, a newer event replaces the queued event with the
// same key. This is what generalizes conflation beyond media — e.g. a
// presence watch keyed by user delivers only each user's latest state
// to a lagging consumer:
//
//	watch, _ := client.WatchPresence(ctx, community,
//	    globalmmcs.WithConflationKey(func(p globalmmcs.Presence) any { return p.User }))
//
// The returned key must be comparable; returning nil exempts that event
// from conflation (it is delivered drop-oldest). The type parameter
// must match the stream's event type — a key function of any other type
// is ignored.
func WithConflationKey[T any](fn func(T) any) StreamOption {
	return func(c *streamConfig) {
		c.conflate = true
		c.keyFn = fn
	}
}

// WithLagNotify registers a callback fired whenever the stream discards
// or conflates an event, with the cumulative number dropped so far. It
// runs on the client's read loop (on the stream's own goroutine for a
// conflating stream), where every stream of that client waits for it:
// it must not block; hand off to your own goroutine for anything slow.
func WithLagNotify(fn func(dropped uint64)) StreamOption {
	return func(c *streamConfig) { c.lagNotify = fn }
}

// Stream is the uniform subscription handle of the SDK: every
// subscribe-shaped API (chat rooms, presence watches, media
// subscriptions, raw session events) returns a Stream of its typed
// events. Consume with Recv, range over All, or select on Chan; Close
// releases the subscription and ends delivery. Delivery QoS — buffer
// depth, full-buffer policy, conflation, lag notification — is set per
// stream with StreamOptions at creation.
//
// A Stream is a typed cursor over its subscription's ring: Recv pops
// events straight out of the buffer the client's read loop filled, so
// an open stream costs no goroutine and no channel. Two kinds of
// stream own a goroutine, one each: a conflating stream (merging has to
// go on while the consumer is away) and a stream whose Chan has been
// called (something has to feed the channel). One goroutine at a time
// may receive from a stream — Recv, All and the first call of Chan share
// the cursor without a lock; Close and Drops are safe from anywhere.
//
// Events discarded because the consumer lags are counted (Drops), fire
// the WithLagNotify callback, and surface as a
// "stream.<user>.<name>.queue_drops" gauge in the server's metrics
// registry when the node runs WithMetrics.
type Stream[T any] struct {
	sub    *broker.Subscription
	decode func(*event.Event) (T, bool)

	// buf[pos:] is the burst last popped from the ring and not yet
	// returned. It belongs to the one receiver, and to the Chan forwarder
	// once that runs.
	buf    []*event.Event
	pos    int
	buffer int // the resolved WithBuffer

	// ch is nil while the stream is consumed in place. A conflating stream
	// makes it at open and Chan on first call; from then on Recv reads it.
	// mu orders the forwarder's start against Close.
	mu     sync.Mutex
	ch     chan T
	closed bool
	wg     sync.WaitGroup // the stream's one goroutine, if it has one

	pending   conflatePending[T] // non-nil when the stream conflates
	lagNotify func(uint64)

	gauge      *metrics.Gauge
	unregister func()

	drops    atomic.Uint64
	once     sync.Once
	closeErr error
}

// conflatePending is the keyed pending set behind a conflating stream:
// while the consumer lags, a newer event replaces the queued event with
// the same key. Two instantiations exist — K = uint64 for the built-in
// media SSRC key, so the default conflating hot path stores keys
// unboxed and allocation-free, and K = any for custom WithConflationKey
// functions.
type conflatePending[T any] interface {
	// admit inserts v, merging over a queued value with the same key. It
	// reports whether v carried a key (unkeyed events bypass conflation)
	// and whether it superseded a queued value (counted as a drop).
	admit(v T) (keyed, merged bool)
	empty() bool
	head() T
	pop()
}

type pendingSet[T any, K comparable] struct {
	keyOf func(T) (K, bool)
	order []K
	vals  map[K]T
}

func newPendingSet[T any, K comparable](keyOf func(T) (K, bool)) *pendingSet[T, K] {
	return &pendingSet[T, K]{keyOf: keyOf, vals: make(map[K]T)}
}

func (p *pendingSet[T, K]) admit(v T) (keyed, merged bool) {
	k, ok := p.keyOf(v)
	if !ok {
		return false, false
	}
	if _, exists := p.vals[k]; exists {
		p.vals[k] = v
		return true, true
	}
	p.vals[k] = v
	p.order = append(p.order, k)
	return true, false
}

func (p *pendingSet[T, K]) empty() bool { return len(p.order) == 0 }
func (p *pendingSet[T, K]) head() T     { return p.vals[p.order[0]] }
func (p *pendingSet[T, K]) pop() {
	delete(p.vals, p.order[0])
	p.order = p.order[1:]
}

// newStream opens a typed stream over a broker subscription. decode
// maps wire events to T (false skips malformed events); builtinKey, when
// non-nil, supplies the stream's built-in conflation key (the media
// SSRC — a uint64, kept unboxed on the conflating fast path), used when
// WithConflation is set without a custom WithConflationKey of the
// matching type. reg/name register the per-stream drop gauge when the
// node has a registry. sub must have been sized with ringDepth for the
// same T, builtinKey and opts.
func newStream[T any](sub *broker.Subscription, reg *metrics.Registry, name string, defaultBuffer int, decode func(*event.Event) (T, bool), builtinKey func(T) (uint64, bool), opts []StreamOption) *Stream[T] {
	cfg := resolveStreamConfig(defaultBuffer, opts)
	if cfg.replay && !cfg.policySet {
		// History must survive a lagging consumer: backpressure the
		// broker's replay pump instead of dropping.
		cfg.policy = Block
	}
	s := &Stream[T]{
		sub:       sub,
		decode:    decode,
		buffer:    cfg.buffer,
		lagNotify: cfg.lagNotify,
	}
	if reg != nil && name != "" {
		gname := "stream." + name + ".queue_drops"
		s.gauge = reg.Gauge(gname)
		s.unregister = acquireGauge(reg, gname)
	}
	if conflates[T](&cfg, builtinKey != nil) {
		if fn, ok := cfg.keyFn.(func(T) any); ok {
			s.pending = newPendingSet[T, any](func(v T) (any, bool) {
				k := fn(v)
				return k, k != nil
			})
		} else {
			s.pending = newPendingSet[T, uint64](builtinKey)
		}
		s.ch = make(chan T, cfg.buffer) // the consumer-facing WithBuffer; the ring behind it is intake
		s.wg.Add(1)
		go s.pumpConflating()
		return s
	}
	s.buf = make([]*event.Event, 0, min(cfg.buffer, streamDrainBurst))
	switch cfg.policy {
	case DropOldest:
		sub.SetOverflow(broker.OverflowDropOldest, s.noteDrops)
	case DropNewest:
		sub.SetOverflow(broker.OverflowDropNewest, s.noteDrops)
	}
	return s
}

// conflates reports whether a stream of T opened with cfg merges queued
// events: conflation was asked for and there is a key to merge by, a
// custom one of the matching type or the stream's built-in one.
func conflates[T any](cfg *streamConfig, builtinKey bool) bool {
	if !cfg.conflate {
		return false
	}
	_, custom := cfg.keyFn.(func(T) any)
	return custom || builtinKey
}

// conflateIntake is the least ring a conflating stream gets. Its pump
// empties the ring into the keyed pending set, where a lagging
// consumer's backlog collapses; a ring as small as WithBuffer(1) would
// instead shed a burst, last-update-per-key included, before the pump
// saw it.
const conflateIntake = 64

// ringDepth sizes the broker subscription behind a stream of T: exactly
// the stream's buffer, because the ring is that buffer — except under a
// conflating stream (see conflateIntake).
func ringDepth[T any](defaultBuffer int, builtinKey bool, opts []StreamOption) int {
	cfg := resolveStreamConfig(defaultBuffer, opts)
	if conflates[T](&cfg, builtinKey) && cfg.buffer < conflateIntake {
		return conflateIntake
	}
	return cfg.buffer
}

// gaugeRefs refcounts per-stream gauges across streams that resolve to
// the same name (the same user opening the same subscription twice), so
// closing one stream does not unregister the gauge out from under the
// other. Keyed per registry.
var (
	gaugeRefsMu sync.Mutex
	gaugeRefs   = make(map[*metrics.Registry]map[string]int)
)

// acquireGauge takes a reference on the named gauge and returns the
// matching release func, which drops the gauge from the registry once
// the last reference is gone.
func acquireGauge(reg *metrics.Registry, name string) func() {
	gaugeRefsMu.Lock()
	defer gaugeRefsMu.Unlock()
	refs := gaugeRefs[reg]
	if refs == nil {
		refs = make(map[string]int)
		gaugeRefs[reg] = refs
	}
	refs[name]++
	return func() {
		gaugeRefsMu.Lock()
		defer gaugeRefsMu.Unlock()
		refs := gaugeRefs[reg]
		if refs == nil {
			return
		}
		refs[name]--
		if refs[name] > 0 {
			return
		}
		delete(refs, name)
		if len(refs) == 0 {
			delete(gaugeRefs, reg)
		}
		reg.DropGauge(name)
	}
}

// resolveStreamConfig folds the options over the defaults.
func resolveStreamConfig(defaultBuffer int, opts []StreamOption) streamConfig {
	cfg := streamConfig{buffer: defaultBuffer, policy: DropOldest}
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	if cfg.buffer <= 0 {
		cfg.buffer = defaultBuffer
	}
	return cfg
}

// streamDrainBurst bounds how many events a receiver pops from the ring
// per lock hold: one lock acquisition and at most one wakeup amortized
// across the whole run.
const streamDrainBurst = 256

// Recv returns the next event, blocking until one is available, the
// stream closes (ErrStreamClosed), or ctx is cancelled (the context's
// error; an event that arrives as ctx ends stays buffered for the next
// call). Buffered events are still delivered after Close. A stream the
// system ended — a replay stream whose recorded data failed its
// integrity check, say — returns ErrStreamClosed wrapped with the
// reason, never a silent end; a plain close returns the sentinel bare.
//
// Recv is not safe for concurrent use with itself, All or the first
// call of Chan: a stream has one receiver at a time.
func (s *Stream[T]) Recv(ctx context.Context) (T, error) {
	if s.ch != nil {
		return s.recvChan(ctx)
	}
	for {
		if v, ok := s.next(); ok {
			return v, nil
		}
		var err error
		s.pos = 0
		s.buf, err = s.sub.RecvBatchContext(ctx, s.buf[:0], streamDrainBurst)
		if err != nil {
			var zero T
			if err == broker.ErrSubscriptionClosed { // returned bare
				err = s.closedErr()
			}
			return zero, err
		}
	}
}

// next decodes the next event of the burst in hand, skipping malformed
// ones; false means the burst is spent.
func (s *Stream[T]) next() (v T, ok bool) {
	for s.pos < len(s.buf) {
		e := s.buf[s.pos]
		s.buf[s.pos] = nil // never pin a delivered event in the reused burst
		s.pos++
		if v, ok = s.decode(e); ok {
			return v, true
		}
	}
	return v, false
}

// recvChan is Recv for a stream that has a delivery channel.
func (s *Stream[T]) recvChan(ctx context.Context) (T, error) {
	var zero T
	select {
	case v, ok := <-s.ch:
		if !ok {
			return zero, s.closedErr()
		}
		return v, nil
	default:
	}
	select {
	case v, ok := <-s.ch:
		if !ok {
			return zero, s.closedErr()
		}
		return v, nil
	case <-ctx.Done():
		return zero, ctx.Err()
	}
}

func (s *Stream[T]) closedErr() error {
	if cause := s.sub.Err(); cause != nil {
		return tag(ErrStreamClosed, cause)
	}
	return ErrStreamClosed
}

// All returns a single-use iterator over the stream's events, for
//
//	for msg, err := range room.All(ctx) { ... }
//
// The iterator ends cleanly when the stream is closed; if ctx is
// cancelled, or the system ended the stream (see Recv), it yields one
// final (zero, err) pair and stops. Any non-nil error ends the
// iteration.
func (s *Stream[T]) All(ctx context.Context) iter.Seq2[T, error] {
	return func(yield func(T, error) bool) {
		for {
			v, err := s.Recv(ctx)
			if err != nil {
				if err != ErrStreamClosed { // Recv returns it bare for a plain close only
					yield(v, err)
				}
				return
			}
			if !yield(v, nil) {
				return
			}
		}
	}
}

// Chan returns a channel of the stream's events, for select-based
// consumers, closed when the stream closes. The first call switches the
// stream from being read in place to being forwarded: it starts the
// stream's one goroutine, which moves events from the buffer into a
// channel as deep as WithBuffer — so the stream then holds up to twice
// WithBuffer before the drop policy applies — and every later Recv
// reads that channel. Nothing is lost or repeated across the switch. A
// conflating stream has had its channel since it was opened.
func (s *Stream[T]) Chan() <-chan T {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ch == nil {
		// As deep as the ring, so that Close can hand over everything
		// buffered without a reader.
		s.ch = make(chan T, s.buffer)
		if s.closed {
			s.forward() // never blocks on a closed subscription
		} else {
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.forward()
			}()
		}
	}
	return s.ch
}

// forward feeds the Chan channel from the ring: the burst the receiver
// had in hand first, then burst after burst. While the subscription is
// live it sends with backpressure, so a full channel fills the ring and
// the drop policy applies there. Once the subscription closes it hands
// over what still fits without blocking — the consumer may be gone —
// and closes the channel.
func (s *Stream[T]) forward() {
	defer close(s.ch)
	done := s.sub.Done()
	for {
		for v, ok := s.next(); ok; v, ok = s.next() {
			if done != nil {
				select {
				case s.ch <- v:
					continue
				case <-done:
					done = nil
				}
			}
			select {
			case s.ch <- v:
			default:
				return
			}
		}
		var ok bool
		s.pos = 0
		s.buf, ok = s.sub.RecvBatch(s.buf[:0], streamDrainBurst)
		if !ok {
			return
		}
	}
}

// CaughtUp returns a channel that closes once a replay stream
// (WithReplayFrom / WithReplayFromEarliest) has drained recorded
// history and handed off to live delivery. Events may still be
// buffered ahead of the consumer at that instant — the signal means
// the broker-side cursor reached the log's tail. For non-replay
// streams it returns nil (a nil channel never becomes ready).
func (s *Stream[T]) CaughtUp() <-chan struct{} { return s.sub.CaughtUp() }

// Drops reports how many events this stream discarded or conflated
// locally because the consumer lagged. (The broker additionally sheds
// best-effort traffic upstream under overload; see the broker
// queue_drops counters.)
func (s *Stream[T]) Drops() uint64 { return s.drops.Load() }

// Close cancels the subscription; a Recv blocked on the stream returns,
// and the Chan channel, if there is one, is closed by the time Close
// returns. Events already buffered remain readable. Idempotent; safe to
// call concurrently with Recv.
func (s *Stream[T]) Close() error {
	s.once.Do(func() {
		s.closeErr = wrapErr(s.sub.Cancel())
		s.mu.Lock()
		s.closed = true // no forwarder starts from here on, so Wait sees them all
		s.mu.Unlock()
		s.wg.Wait()
		if s.unregister != nil {
			s.unregister()
		}
	})
	return s.closeErr
}

// noteDrops counts n discarded events and publishes the new total. It is
// the subscription's drop hook (called on the client's read loop) and
// the conflating pump's own accounting.
func (s *Stream[T]) noteDrops(n uint64) {
	total := s.drops.Add(n)
	if s.gauge != nil {
		s.gauge.Set(int64(total))
	}
	if s.lagNotify != nil {
		s.lagNotify(total)
	}
}

// sendDropOldest puts v on the conflating stream's channel without ever
// blocking, displacing the oldest buffered event when full; every
// displacement is counted and reported.
func (s *Stream[T]) sendDropOldest(v T) {
	for {
		select {
		case s.ch <- v:
			return
		default:
		}
		select {
		case <-s.ch:
			s.noteDrops(1)
		default:
		}
	}
}

// pumpConflating drains the subscription ring eagerly into the keyed
// pending set: while the consumer lags, a newer event replaces the
// queued event with the same key instead of queueing behind it. Pending
// events feed the delivery channel in arrival order of their keys.
// Unkeyed events bypass conflation and are delivered drop-oldest.
func (s *Stream[T]) pumpConflating() {
	defer s.wg.Done()
	defer close(s.ch)
	buf := make([]*event.Event, 0, streamDrainBurst)
	admit := func(events []*event.Event) {
		for _, e := range events {
			v, ok := s.decode(e)
			if !ok {
				continue
			}
			keyed, merged := s.pending.admit(v)
			switch {
			case !keyed:
				s.sendDropOldest(v)
			case merged:
				s.noteDrops(1) // conflated: the queued event was superseded
			}
		}
	}
	// handover delivers everything pending without blocking, for when
	// the input has ended (the consumer may be gone).
	handover := func() {
		for !s.pending.empty() {
			s.sendDropOldest(s.pending.head())
			s.pending.pop()
		}
	}

	for {
		if s.pending.empty() {
			var ok bool
			buf, ok = s.sub.RecvBatch(buf[:0], streamDrainBurst)
			admit(buf)
			clear(buf)
			if !ok {
				handover()
				return
			}
			continue
		}
		// Pending events exist: drain whatever already arrived (one ring
		// lock for the run) and push pending heads while the consumer
		// keeps up, then block multiplexing input against delivery.
		var ok bool
		buf, ok = s.sub.TryRecvBatch(buf[:0], streamDrainBurst)
		got := len(buf)
		admit(buf)
		clear(buf)
		if !ok {
			handover()
			return
		}
		progressed := false
		for !s.pending.empty() {
			select {
			case s.ch <- s.pending.head():
				s.pending.pop()
				progressed = true
				continue
			default:
			}
			break
		}
		if got > 0 || progressed {
			continue
		}
		select {
		case s.ch <- s.pending.head():
			s.pending.pop()
		case <-s.sub.Wake():
			// More input may be buffered; the next TryRecvBatch re-arms
			// the token if it leaves events behind.
		case <-s.sub.Done():
			// Closed: the next TryRecvBatch reports it once the ring is
			// empty, and what is pending is handed over.
		}
	}
}

// Event is one raw broker event as delivered by Session.Events — the
// escape hatch onto the publish/subscribe substrate that every
// collaboration modality (media, chat, presence, signalling) rides.
type Event struct {
	// Topic is the concrete broker topic the event was published on.
	Topic string
	// Kind names the payload class ("rtp", "chat", "presence",
	// "control", "data", ...).
	Kind string
	// Source identifies the publishing client.
	Source string
	// At is the publish wall-clock instant.
	At time.Time
	// Reliable reports whether the event rode the reliable profile.
	Reliable bool
	// Payload is the raw application data. It may alias the broker's
	// receive buffer: callers retaining events indefinitely should copy
	// it (Clone) so a 256 KiB receive chunk is not pinned by one packet.
	// Payload is all a retained Event shares with the receive path: the
	// other fields were copied out of the decoded event, so the decode
	// slab it came from is not kept alive.
	Payload []byte
}

// Clone returns a deep copy of the event whose payload no longer
// aliases any shared receive buffer; a clone pins nothing but itself.
func (e Event) Clone() Event {
	c := e
	c.Payload = append([]byte(nil), e.Payload...)
	return c
}

func rawFromInternal(e *event.Event) (Event, bool) {
	return Event{
		Topic:    e.Topic,
		Kind:     e.Kind.String(),
		Source:   e.Source,
		At:       time.Unix(0, e.Timestamp),
		Reliable: e.Reliable,
		Payload:  e.Payload,
	}, true
}
