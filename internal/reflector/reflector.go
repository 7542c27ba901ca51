// Package reflector implements the JMF-reflector baseline that Figure 3
// of the paper compares NaradaBrokering against.
//
// It faithfully models the architecture that made the JMF RTPManager
// reflector slow: a single dispatch thread receives each packet and then,
// for every registered receiver in turn, deep-copies the event, re-parses
// and re-marshals the RTP payload (JMF re-packetized per send), and sends
// synchronously before moving on. All per-send link costs are therefore
// serialized through one thread, unlike the broker's per-client queues.
package reflector

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/rtp"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// spinFor busy-waits for d in the calling goroutine — the cost must
// occupy the dispatch thread, exactly like the modelled JMF overhead.
func spinFor(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) { //nolint:revive // intentional spin
	}
}

// Config parameterises the baseline. The zero value is the plain
// JMF-faithful reflector.
type Config struct {
	// ProcessingCost adds emulated per-receiver-send CPU time on top of
	// the work Go actually performs, standing in for the JVM-era
	// RTPManager overhead (synchronized buffers, object churn, GC
	// pressure) that a 2026 Go port cannot reproduce natively. It burns
	// time in the single dispatch thread. See DESIGN.md §7.
	ProcessingCost time.Duration
}

// Reflector is a single-threaded unicast RTP reflector.
type Reflector struct {
	cfg Config

	mu        sync.Mutex
	receivers []transport.Conn
	sources   []transport.Conn
	closed    bool

	in  atomic.Uint64
	out atomic.Uint64

	wg sync.WaitGroup
}

// New creates a reflector. Every RTP packet is re-parsed and
// re-marshalled per receiver, as JMF did.
func New(cfg Config) *Reflector {
	return &Reflector{cfg: cfg}
}

// AddReceiver registers a conn that will receive every reflected packet.
func (r *Reflector) AddReceiver(c transport.Conn) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return errors.New("reflector: closed")
	}
	r.receivers = append(r.receivers, c)
	return nil
}

// ReceiverCount returns the number of registered receivers.
func (r *Reflector) ReceiverCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.receivers)
}

// ServeSource consumes events from src and reflects each one, returning
// when src closes. This is the single dispatch thread.
func (r *Reflector) ServeSource(src transport.Conn) {
	for {
		e, err := src.Recv()
		if err != nil {
			return
		}
		r.in.Add(1)
		r.reflect(e)
	}
}

// ServeSourceAsync runs ServeSource on a goroutine owned by the
// reflector; Stop closes the source conn and waits for the loop.
func (r *Reflector) ServeSourceAsync(src transport.Conn) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		src.Close()
		return
	}
	r.sources = append(r.sources, src)
	r.mu.Unlock()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.ServeSource(src)
	}()
}

// reflect fans one event out to all receivers, sequentially and
// synchronously — the defining behaviour of the baseline.
func (r *Reflector) reflect(e *event.Event) {
	r.mu.Lock()
	receivers := r.receivers
	r.mu.Unlock()
	for _, c := range receivers {
		dup := e.Clone() // JMF cloned the packet per receiver
		if dup.Kind == event.KindRTP {
			var p rtp.Packet
			if err := p.Unmarshal(dup.Payload); err == nil {
				if b, err := p.Marshal(); err == nil {
					dup.Payload = b
				}
			}
		}
		if r.cfg.ProcessingCost > 0 {
			spinFor(r.cfg.ProcessingCost)
		}
		if err := c.Send(dup); err != nil {
			continue // a dead receiver does not stop the others
		}
		r.out.Add(1)
	}
}

// Stats returns packets received from sources and packets sent to
// receivers.
func (r *Reflector) Stats() (in, out uint64) {
	return r.in.Load(), r.out.Load()
}

// Stop closes all receiver and source conns and waits for async source
// loops.
func (r *Reflector) Stop() {
	r.mu.Lock()
	receivers := r.receivers
	sources := r.sources
	r.receivers = nil
	r.sources = nil
	r.closed = true
	r.mu.Unlock()
	for _, c := range receivers {
		c.Close()
	}
	for _, c := range sources {
		c.Close()
	}
	r.wg.Wait()
}

// ConnPublisher adapts a raw transport.Conn into a media.Publisher,
// stamping event identity like a broker client would.
type ConnPublisher struct {
	conn   transport.Conn
	source string
	nextID atomic.Uint64
}

// NewConnPublisher wraps conn with publisher identity source.
func NewConnPublisher(conn transport.Conn, source string) *ConnPublisher {
	return &ConnPublisher{conn: conn, source: source}
}

// PublishEvent stamps identity and sends the event.
func (p *ConnPublisher) PublishEvent(e *event.Event) error {
	e.Source = p.source
	e.ID = p.nextID.Add(1)
	return p.conn.Send(e)
}
