package admire

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/rtp"
	"github.com/globalmmcs/globalmmcs/internal/wsci"
	"github.com/globalmmcs/globalmmcs/internal/xgsp"
)

// The rendezvous registration probe is retried probeAttempts times,
// probeRetry apart, before the bridge gives up.
const (
	probeAttempts = 20
	probeRetry    = 100 * time.Millisecond
)

// Bridge connects one Global-MMCS session to one Admire conference: it
// asks the Admire web service for the rendezvous point, then runs an RTP
// agent that relays session topics ↔ rendezvous UDP. Inbound packets are
// classified onto the audio or video topic by RTP payload type.
type Bridge struct {
	bc        *broker.Client
	pc        net.PacketConn
	rendAddr  *net.UDPAddr
	audioTop  string
	videoTop  string
	sessionID string

	probeAck  chan struct{}
	probeOnce sync.Once

	wg   sync.WaitGroup
	stop context.CancelFunc
}

// NewBridge wires session (via its SessionInfo) to the Admire conference
// confID served at the community's WSDL-CI endpoint.
func NewBridge(bc *broker.Client, session *xgsp.SessionInfo, confID string, admireWS *wsci.Client) (*Bridge, error) {
	var rend RendezvousResponse
	if err := admireWS.Call(&RendezvousRequest{ID: confID}, &rend); err != nil {
		return nil, fmt.Errorf("admire: getting rendezvous: %w", err)
	}
	ua, err := net.ResolveUDPAddr("udp", rend.Addr)
	if err != nil {
		return nil, fmt.Errorf("admire: resolving rendezvous %q: %w", rend.Addr, err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("admire: binding bridge agent: %w", err)
	}
	b := &Bridge{
		bc:        bc,
		pc:        pc,
		rendAddr:  ua,
		sessionID: session.ID,
		probeAck:  make(chan struct{}),
	}
	for _, m := range session.Media {
		switch m.Type {
		case xgsp.MediaAudio:
			b.audioTop = m.Topic
		case xgsp.MediaVideo:
			b.videoTop = m.Topic
		}
	}
	if b.audioTop == "" && b.videoTop == "" {
		pc.Close()
		return nil, fmt.Errorf("admire: session %s has no media to bridge", session.ID)
	}
	ctx, stop := context.WithCancel(context.Background())
	b.stop = stop
	for _, topic := range []string{b.audioTop, b.videoTop} {
		if topic == "" {
			continue
		}
		sub, err := bc.Subscribe(topic, 512)
		if err != nil {
			b.Close()
			return nil, fmt.Errorf("admire: subscribing %s: %w", topic, err)
		}
		b.wg.Add(1)
		go func(sub *broker.Subscription) {
			defer b.wg.Done()
			b.toAdmire(ctx, sub)
		}(sub)
	}
	b.wg.Add(1)
	go b.fromAdmire()
	// Hole-punch: announce our address to the rendezvous agent and wait
	// for its acknowledgement so Admire → MMCS traffic cannot race the
	// registration.
	if err := b.probeRendezvous(); err != nil {
		b.Close()
		return nil, err
	}
	return b, nil
}

// probeRendezvous retries the registration probe until acknowledged,
// probeAttempts times probeRetry apart.
func (b *Bridge) probeRendezvous() error {
	retry := time.NewTimer(probeRetry)
	defer retry.Stop()
	for range probeAttempts {
		if _, err := b.pc.WriteTo(probeMagic, b.rendAddr); err != nil {
			return fmt.Errorf("admire: probing rendezvous: %w", err)
		}
		retry.Reset(probeRetry)
		select {
		case <-b.probeAck:
			return nil
		case <-retry.C:
		}
	}
	return fmt.Errorf("admire: rendezvous %s never acknowledged probe", b.rendAddr)
}

// SessionID returns the bridged Global-MMCS session.
func (b *Bridge) SessionID() string { return b.sessionID }

// Close stops the bridge.
func (b *Bridge) Close() {
	b.stop()
	b.pc.Close()
	b.wg.Wait()
}

// toAdmire forwards session media to the rendezvous as raw RTP.
func (b *Bridge) toAdmire(ctx context.Context, sub *broker.Subscription) {
	var buf []*event.Event
	for {
		var err error
		if buf, err = sub.RecvBatchContext(ctx, buf[:0], 0); err != nil {
			return
		}
		for _, e := range buf {
			if e.Kind == event.KindRTP && e.Source != b.bc.ID() {
				_, _ = b.pc.WriteTo(e.Payload, b.rendAddr) // best-effort media
			}
		}
		clear(buf)
	}
}

// fromAdmire publishes rendezvous traffic onto the session topics,
// splitting audio from video by payload type.
func (b *Bridge) fromAdmire() {
	defer b.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, _, err := b.pc.ReadFrom(buf)
		if err != nil {
			return
		}
		if n == len(probeMagic) && string(buf[:n]) == string(probeMagic) {
			b.probeOnce.Do(func() { close(b.probeAck) })
			continue
		}
		var pkt rtp.Packet
		if err := pkt.Unmarshal(buf[:n]); err != nil {
			continue
		}
		topic := b.videoTop
		if pkt.PayloadType == rtp.PayloadPCMU {
			topic = b.audioTop
		}
		if topic == "" {
			continue
		}
		payload := make([]byte, n)
		copy(payload, buf[:n])
		if err := b.bc.PublishEvent(event.New(topic, event.KindRTP, payload)); err != nil {
			return
		}
	}
}
