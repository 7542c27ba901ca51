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
// delivery buffer is full because the consumer lags.
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
	// Block stops draining the subscription until the consumer catches
	// up. Backpressure propagates into the broker connection: reliable
	// traffic stalls the sender, best-effort traffic is shed upstream in
	// the broker's bounded queues. Nothing is dropped by the Stream
	// itself.
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

// WithBuffer sets the stream's delivery buffer depth (and sizes the
// underlying broker subscription to match). n <= 0 keeps the stream's
// default (64 for chat and presence, 256 for media and raw events).
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
// runs on the delivery goroutine and must not block; hand off to your
// own goroutine for anything slow.
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
// Events discarded because the consumer lags are counted (Drops), fire
// the WithLagNotify callback, and surface as a
// "stream.<user>.<name>.queue_drops" gauge in the server's metrics
// registry when the node runs WithMetrics.
type Stream[T any] struct {
	sub       *broker.Subscription
	ch        chan T
	policy    DropPolicy
	pending   conflatePending[T] // non-nil when the stream conflates
	lagNotify func(uint64)

	gauge      *metrics.Gauge
	unregister func()

	drops    atomic.Uint64
	closing  chan struct{}
	once     sync.Once
	closeErr error
	wg       sync.WaitGroup
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

// newStream wires a typed pump over a broker subscription. decode maps
// wire events to T (false skips malformed events); builtinKey, when
// non-nil, supplies the stream's built-in conflation key (the media
// SSRC — a uint64, kept unboxed on the conflating fast path), used when
// WithConflation is set without a custom WithConflationKey of the
// matching type. reg/name register the per-stream drop gauge when the
// node has a registry.
func newStream[T any](sub *broker.Subscription, reg *metrics.Registry, name string, defaultBuffer int, decode func(*event.Event) (T, bool), builtinKey func(T) (uint64, bool), opts []StreamOption) *Stream[T] {
	cfg := resolveStreamConfig(defaultBuffer, opts)
	if cfg.replay && !cfg.policySet {
		// History must survive a lagging consumer: backpressure the
		// broker's replay pump instead of dropping.
		cfg.policy = Block
	}
	s := &Stream[T]{
		sub:       sub,
		ch:        make(chan T, cfg.buffer),
		policy:    cfg.policy,
		lagNotify: cfg.lagNotify,
		closing:   make(chan struct{}),
	}
	if cfg.conflate {
		if fn, ok := cfg.keyFn.(func(T) any); ok {
			s.pending = newPendingSet[T, any](func(v T) (any, bool) {
				k := fn(v)
				return k, k != nil
			})
		} else if builtinKey != nil {
			s.pending = newPendingSet[T, uint64](builtinKey)
		}
	}
	if reg != nil && name != "" {
		gname := "stream." + name + ".queue_drops"
		s.gauge = reg.Gauge(gname)
		s.unregister = acquireGauge(reg, gname)
	}
	s.wg.Add(1)
	go s.pump(decode)
	return s
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

// streamBuffer resolves the effective stream buffer depth for the
// given options.
func streamBuffer(defaultBuffer int, opts []StreamOption) int {
	return resolveStreamConfig(defaultBuffer, opts).buffer
}

// brokerDepth sizes the broker-side subscription channel backing a
// stream buffer: it matches the buffer but keeps a floor, so a tiny
// app-side buffer (WithBuffer(1) with conflation, say) doesn't force
// upstream best-effort drops that the stream-level policy was meant to
// manage.
func brokerDepth(buffer int) int {
	const floor = 64
	if buffer < floor {
		return floor
	}
	return buffer
}

// Recv returns the next event, blocking until one is available, the
// stream closes (ErrStreamClosed), or ctx is cancelled (the context's
// error). Buffered events are still delivered after Close. A stream the
// system ended — a replay stream whose recorded data failed its
// integrity check, say — returns ErrStreamClosed wrapped with the
// reason, never a silent end; a plain close returns the sentinel bare.
func (s *Stream[T]) Recv(ctx context.Context) (T, error) {
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

// Chan returns the delivery channel, for select-based consumers. It is
// closed when the stream closes; Recv and Chan draw from the same
// buffer.
func (s *Stream[T]) Chan() <-chan T { return s.ch }

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

// Close cancels the subscription and closes the delivery channel.
// Events already buffered remain readable. Idempotent; safe to call
// concurrently with Recv.
func (s *Stream[T]) Close() error {
	s.once.Do(func() {
		close(s.closing)
		s.closeErr = wrapErr(s.sub.Cancel())
		s.wg.Wait()
		if s.unregister != nil {
			s.unregister()
		}
	})
	return s.closeErr
}

func (s *Stream[T]) noteDrops(n uint64) {
	total := s.drops.Add(n)
	if s.gauge != nil {
		s.gauge.Set(int64(total))
	}
	if s.lagNotify != nil {
		s.lagNotify(total)
	}
}

// sendDropOldest delivers v without ever blocking, displacing the
// oldest buffered event when full — the pre-existing pump policy, now
// with every displacement counted and reported.
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

// streamDrainBurst bounds how many subscription events a pump drains
// per ring wakeup: one lock acquisition and one wakeup amortized across
// the whole run.
const streamDrainBurst = 256

func (s *Stream[T]) pump(decode func(*event.Event) (T, bool)) {
	defer s.wg.Done()
	defer close(s.ch)
	if s.pending != nil {
		s.pumpConflating(decode)
		return
	}
	// Drain the subscription ring in bursts — decode a run of events per
	// wakeup and apply the drop policy per batch, with drop/lag totals
	// identical to the per-event pump's.
	buf := make([]*event.Event, 0, streamDrainBurst)
	for {
		var ok bool
		buf, ok = s.sub.RecvBatch(buf[:0], streamDrainBurst)
		for _, e := range buf {
			v, decoded := decode(e)
			if !decoded {
				continue
			}
			switch s.policy {
			case Block:
				select {
				case s.ch <- v:
				case <-s.closing:
					return
				}
			case DropNewest:
				select {
				case s.ch <- v:
				default:
					s.noteDrops(1)
				}
			default: // DropOldest
				s.sendDropOldest(v)
			}
		}
		clear(buf) // never pin delivered events in the reused buffer
		if !ok {
			return
		}
	}
}

// pumpConflating drains the subscription ring eagerly into the keyed
// pending set: while the consumer lags, a newer event replaces the
// queued event with the same key instead of queueing behind it. Pending
// events feed the delivery channel in arrival order of their keys.
// Unkeyed events bypass conflation and are delivered drop-oldest.
func (s *Stream[T]) pumpConflating(decode func(*event.Event) (T, bool)) {
	buf := make([]*event.Event, 0, streamDrainBurst)
	admit := func(events []*event.Event) {
		for _, e := range events {
			v, ok := decode(e)
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
		case <-s.closing:
			return
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
	Payload []byte
}

// Clone returns a deep copy of the event whose payload no longer
// aliases any shared receive buffer.
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
