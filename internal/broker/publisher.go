package broker

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// ErrPublisherClosed is returned by Publish on a closed Publisher.
var ErrPublisherClosed = errors.New("broker: publisher closed")

// DefaultPublishFlushInterval bounds how long a batched publish may
// linger in the client-side batcher before it is forced onto the wire.
const DefaultPublishFlushInterval = time.Millisecond

// PublisherConfig tunes a client-side publisher.
type PublisherConfig struct {
	// Batching aggregates encoded events into one write system call per
	// batch (the mirror of the broker's outbound session batching, for
	// the client→broker direction). It only takes effect on framed wire
	// conns (tcp, udp); in-process pipes move decoded events by pointer
	// and fall back to per-event sends.
	Batching bool
	// MaxBatchBytes bounds the encoded bytes aggregated before a forced
	// flush (<= 0: transport.DefaultMaxBatchBytes).
	MaxBatchBytes int
	// FlushInterval bounds how long a non-full batch may linger before
	// it is flushed by a background timer (<= 0:
	// DefaultPublishFlushInterval). Reliable events always flush
	// immediately regardless.
	FlushInterval time.Duration
}

// Publisher is a client-side publish handle. With batching enabled it
// drains through a transport.Batcher so gateway-style senders pumping
// many events per interval pay one write system call per batch instead
// of one per event. A Publisher shares its Client's connection; control
// traffic (subscribes, acks) is never delayed by a pending batch, it
// goes out on the conn directly. Safe for concurrent use.
type Publisher struct {
	c             *Client
	flushInterval time.Duration

	mu     sync.Mutex
	bw     *transport.Batcher // nil: unbatched per-event sends
	timer  *time.Timer
	closed bool
}

// Publisher creates a publish handle over this client's connection.
func (c *Client) Publisher(cfg PublisherConfig) *Publisher {
	p := &Publisher{c: c, flushInterval: cfg.FlushInterval}
	if p.flushInterval <= 0 {
		p.flushInterval = DefaultPublishFlushInterval
	}
	// Resilient clients swap conns under the publisher's feet, and a
	// Batcher binds to one FrameConn for life — fall back to per-event
	// sends, which route through the reconnect-aware send path.
	if cfg.Batching && c.res == nil {
		c.connMu.RLock()
		conn := c.conn
		c.connMu.RUnlock()
		if fc, ok := conn.(transport.FrameConn); ok {
			p.bw = transport.NewBatcher(fc, cfg.MaxBatchBytes)
		}
	}
	return p
}

// Batched reports whether this publisher aggregates writes (false on
// in-process conns even when batching was requested).
func (p *Publisher) Batched() bool { return p.bw != nil }

// Publish stamps identity onto e and sends it, batched when enabled.
// The event must not be mutated afterwards. Whether its payload may be
// reused depends on the conn: a wire conn has copied it into the frame
// or batch by the time Publish returns, an in-process pipe moves the
// event by pointer, payload and all, and subscribers read those bytes.
// Reliable events force the whole pending batch onto the wire so
// signalling never lingers behind media in a user-space buffer.
func (p *Publisher) Publish(e *event.Event) error {
	if err := p.c.stamp(e); err != nil {
		return err
	}
	if p.bw == nil {
		p.mu.Lock()
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return ErrPublisherClosed
		}
		if err := p.c.sendData(e); err != nil {
			return fmt.Errorf("broker: publish: %w", err)
		}
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPublisherClosed
	}
	wasEmpty := p.bw.Pending() == 0
	if err := p.bw.AddEventInPlace(e); err != nil {
		return fmt.Errorf("broker: publish: %w", err)
	}
	if e.Reliable {
		if err := p.bw.Flush(); err != nil {
			return fmt.Errorf("broker: publish: %w", err)
		}
		return nil
	}
	if wasEmpty && p.bw.Pending() > 0 {
		// First frame of a fresh batch: arm the linger timer so a sender
		// that stops mid-batch still gets its tail delivered.
		if p.timer == nil {
			p.timer = time.AfterFunc(p.flushInterval, p.timedFlush)
		} else {
			p.timer.Reset(p.flushInterval)
		}
	}
	return nil
}

// timedFlush is the linger-timer callback. A flush error here is
// dropped: the conn is broken and the next Publish surfaces it.
func (p *Publisher) timedFlush() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.bw == nil {
		return
	}
	_ = p.bw.Flush()
}

// Flush forces any pending batch onto the wire.
func (p *Publisher) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.bw == nil || p.closed {
		return nil
	}
	if err := p.bw.Flush(); err != nil {
		return fmt.Errorf("broker: publish flush: %w", err)
	}
	return nil
}

// Close flushes and retires the publisher. The underlying client stays
// open. Idempotent.
func (p *Publisher) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	if p.timer != nil {
		p.timer.Stop()
	}
	if p.bw != nil {
		if err := p.bw.Flush(); err != nil {
			return fmt.Errorf("broker: publish flush: %w", err)
		}
	}
	return nil
}
