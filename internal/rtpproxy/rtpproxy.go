// Package rtpproxy bridges raw RTP endpoints to broker topics — the "RTP
// Proxies in the NaradaBrokering system" of §3.2. A binding owns one UDP
// socket: inbound raw RTP datagrams are wrapped in KindRTP events and
// published to the binding's topic; events arriving on the topic are
// unwrapped and forwarded as raw RTP to the learned (or configured)
// remote endpoint address.
//
// H.323 and SIP gateways allocate one binding per logical media channel
// and hand its local address to the endpoint during signalling.
package rtpproxy

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/rtp"
)

// maxRTPDatagram bounds datagrams read from endpoints.
const maxRTPDatagram = 64 << 10

// Proxy manages RTP bindings for one broker client.
type Proxy struct {
	client *broker.Client

	mu       sync.Mutex
	bindings map[*Binding]struct{}
	closed   bool
}

// New creates a proxy publishing through the given broker client. The
// client is owned by the caller.
func New(client *broker.Client) *Proxy {
	return &Proxy{
		client:   client,
		bindings: make(map[*Binding]struct{}),
	}
}

// Bind allocates a UDP socket on host (e.g. "127.0.0.1:0") bridged to
// topic. The returned binding forwards topic traffic to the first remote
// address it hears raw RTP from, unless SetRemote pins one.
func (p *Proxy) Bind(topic, host string) (*Binding, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errors.New("rtpproxy: closed")
	}
	p.mu.Unlock()

	pc, err := net.ListenPacket("udp", host)
	if err != nil {
		return nil, fmt.Errorf("rtpproxy: allocating port: %w", err)
	}
	sub, err := p.client.Subscribe(topic, 512)
	if err != nil {
		pc.Close()
		return nil, fmt.Errorf("rtpproxy: subscribing %s: %w", topic, err)
	}
	b := &Binding{
		proxy: p,
		topic: topic,
		pc:    pc,
		sub:   sub,
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		pc.Close()
		return nil, errors.New("rtpproxy: closed")
	}
	p.bindings[b] = struct{}{}
	p.mu.Unlock()

	b.wg.Add(2)
	go b.inboundLoop()
	go b.outboundLoop()
	return b, nil
}

// Close tears down all bindings.
func (p *Proxy) Close() {
	p.mu.Lock()
	p.closed = true
	bindings := make([]*Binding, 0, len(p.bindings))
	for b := range p.bindings {
		bindings = append(bindings, b)
	}
	p.mu.Unlock()
	for _, b := range bindings {
		b.Close()
	}
}

func (p *Proxy) remove(b *Binding) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.bindings, b)
}

// Binding is one UDP↔topic bridge.
type Binding struct {
	proxy *Proxy
	topic string
	pc    net.PacketConn
	sub   *broker.Subscription

	remote atomic.Pointer[net.UDPAddr]

	in  atomic.Uint64
	out atomic.Uint64

	wg   sync.WaitGroup
	once sync.Once
}

// LocalAddr returns the bound UDP address endpoints should send RTP to.
func (b *Binding) LocalAddr() string { return b.pc.LocalAddr().String() }

// Topic returns the bridged topic.
func (b *Binding) Topic() string { return b.topic }

// SetRemote pins the endpoint address that topic traffic is forwarded to.
func (b *Binding) SetRemote(addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("rtpproxy: resolving remote %q: %w", addr, err)
	}
	b.remote.Store(ua)
	return nil
}

// Stats returns (packets published to topic, packets forwarded to the
// endpoint).
func (b *Binding) Stats() (in, out uint64) { return b.in.Load(), b.out.Load() }

// Close releases the socket and subscription.
func (b *Binding) Close() {
	b.once.Do(func() {
		b.pc.Close()
		_ = b.sub.Cancel()
		b.proxy.remove(b)
	})
	b.wg.Wait()
}

// inboundLoop reads raw RTP from the endpoint and publishes it.
func (b *Binding) inboundLoop() {
	defer b.wg.Done()
	buf := make([]byte, maxRTPDatagram)
	for {
		n, raddr, err := b.pc.ReadFrom(buf)
		if err != nil {
			return
		}
		// Sanity-check it parses as RTP before flooding the session.
		var pkt rtp.Packet
		if err := pkt.Unmarshal(buf[:n]); err != nil {
			continue
		}
		// Learn the endpoint address from its first valid packet.
		if b.remote.Load() == nil {
			if ua, ok := raddr.(*net.UDPAddr); ok {
				b.remote.Store(ua)
			}
		}
		payload := make([]byte, n)
		copy(payload, buf[:n])
		e := event.New(b.topic, event.KindRTP, payload)
		if err := b.proxy.client.PublishEvent(e); err != nil {
			return
		}
		b.in.Add(1)
	}
}

// outboundLoop forwards topic traffic to the endpoint as raw RTP until
// Close cancels the subscription.
func (b *Binding) outboundLoop() {
	defer b.wg.Done()
	var buf []*event.Event
	for {
		var ok bool
		if buf, ok = b.sub.RecvBatch(buf[:0], 0); !ok {
			return
		}
		for _, e := range buf {
			// Our own publishes loop back through the broker; skip them.
			if e.Kind != event.KindRTP || e.Source == b.proxy.client.ID() {
				continue
			}
			remote := b.remote.Load()
			if remote == nil {
				continue // endpoint address not yet known
			}
			if _, err := b.pc.WriteTo(e.Payload, remote); err == nil {
				b.out.Add(1)
			}
		}
		clear(buf)
	}
}
