// Package streaming implements the Global-MMCS streaming service — the
// substitute for the paper's Real Producer + Helix Server: a producer
// that subscribes to a session's RTP topics and re-encodes packets into
// the "streaming" payload format, an RTSP server that Real/Windows-Media
// style players use to pull those streams over UDP, a player client, and
// a conference archiver that records and replays session media.
package streaming

import (
	"context"
	"fmt"
	"net"
	"sync"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/metrics"
	"github.com/globalmmcs/globalmmcs/internal/rtp"
	"github.com/globalmmcs/globalmmcs/internal/xgsp"
)

// Dynamic payload types the producer re-encodes into ("Real format" —
// the transcode itself is simulated; see DESIGN.md §7).
const (
	payloadStreamAudio = 96
	payloadStreamVideo = 97
)

// Track identifies one media track of a streamed session.
type Track struct {
	// Kind is "audio" or "video".
	Kind string
	// ID is the RTSP track id (0 = audio, 1 = video).
	ID int
	// Topic is the broker topic the producer consumes.
	Topic string
}

// Producer consumes one session's media topics, re-encodes packets and
// fans them out to attached outputs (RTSP deliveries). This is the
// "customer input plugin" Real Producer of §3.2.
type Producer struct {
	sessionID string
	tracks    []Track

	mu      sync.Mutex
	outputs map[int]map[*Output]struct{} // track id → outputs
	closed  bool

	metrics *metrics.Registry
	wg      sync.WaitGroup
	stop    context.CancelFunc
}

// Output is one delivery target: RTP datagrams written to a UDP address.
type Output struct {
	pc   net.PacketConn
	addr net.Addr

	mu     sync.Mutex
	paused bool
}

// Pause suspends delivery.
func (o *Output) Pause() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.paused = true
}

// Resume re-enables delivery.
func (o *Output) Resume() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.paused = false
}

func (o *Output) deliver(b []byte) {
	o.mu.Lock()
	paused := o.paused
	o.mu.Unlock()
	if paused {
		return
	}
	// Best effort, as RTP over UDP is: a failed write is a lost
	// datagram, which the player's loss statistics account for.
	_, _ = o.pc.WriteTo(b, o.addr)
}

// NewProducer subscribes a producer to the session's audio and video
// topics through the given broker client.
func NewProducer(bc *broker.Client, info *xgsp.SessionInfo, reg *metrics.Registry) (*Producer, error) {
	if reg == nil {
		reg = &metrics.Registry{}
	}
	p := &Producer{
		sessionID: info.ID,
		outputs:   make(map[int]map[*Output]struct{}),
		metrics:   reg,
	}
	ctx, stop := context.WithCancel(context.Background())
	p.stop = stop
	trackID := 0
	for _, m := range info.Media {
		kind := string(m.Type)
		if kind != "audio" && kind != "video" {
			continue
		}
		track := Track{Kind: kind, ID: trackID, Topic: m.Topic}
		p.tracks = append(p.tracks, track)
		sub, err := bc.Subscribe(m.Topic, 1024)
		if err != nil {
			p.Stop()
			return nil, fmt.Errorf("streaming: subscribing %s: %w", m.Topic, err)
		}
		p.outputs[trackID] = make(map[*Output]struct{})
		p.wg.Add(1)
		go func(tr Track, sub *broker.Subscription) {
			defer p.wg.Done()
			p.consume(ctx, tr, sub)
		}(track, sub)
		trackID++
	}
	if len(p.tracks) == 0 {
		return nil, fmt.Errorf("streaming: session %s has no streamable media", info.ID)
	}
	return p, nil
}

// SessionID returns the produced session.
func (p *Producer) SessionID() string { return p.sessionID }

// Tracks lists the produced tracks.
func (p *Producer) Tracks() []Track { return p.tracks }

// TrackByID finds a track.
func (p *Producer) TrackByID(id int) (Track, bool) {
	for _, t := range p.tracks {
		if t.ID == id {
			return t, true
		}
	}
	return Track{}, false
}

// Attach registers an output for a track. The socket is owned by the
// caller (the RTSP session).
func (p *Producer) Attach(trackID int, pc net.PacketConn, addr net.Addr) (*Output, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, fmt.Errorf("streaming: producer closed")
	}
	outs, ok := p.outputs[trackID]
	if !ok {
		return nil, fmt.Errorf("streaming: no track %d", trackID)
	}
	o := &Output{pc: pc, addr: addr, paused: true}
	outs[o] = struct{}{}
	return o, nil
}

// Detach removes an output.
func (p *Producer) Detach(trackID int, o *Output) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if outs, ok := p.outputs[trackID]; ok {
		delete(outs, o)
	}
}

// Stop halts consumption.
func (p *Producer) Stop() {
	p.stop()
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *Producer) consume(ctx context.Context, tr Track, sub *broker.Subscription) {
	var buf []*event.Event
	for {
		var err error
		if buf, err = sub.RecvBatchContext(ctx, buf[:0], 0); err != nil {
			return
		}
		for _, e := range buf {
			if e.Kind != event.KindRTP {
				continue
			}
			b, err := p.transcode(tr, e.Payload)
			if err != nil {
				p.metrics.Counter("streaming.transcode_errors").Inc()
				continue
			}
			p.metrics.Counter("streaming.packets_produced").Inc()
			p.mu.Lock()
			outs := make([]*Output, 0, len(p.outputs[tr.ID]))
			for o := range p.outputs[tr.ID] {
				outs = append(outs, o)
			}
			p.mu.Unlock()
			for _, o := range outs {
				o.deliver(b)
			}
		}
		clear(buf)
	}
}

// transcode simulates the Real Producer's re-encode: the RTP payload is
// preserved, the payload type is remapped to the streaming format and
// the SSRC is rewritten to the producer's own (it is a new media source).
func (p *Producer) transcode(tr Track, raw []byte) ([]byte, error) {
	var pkt rtp.Packet
	if err := pkt.Unmarshal(raw); err != nil {
		return nil, err
	}
	if tr.Kind == "audio" {
		pkt.PayloadType = payloadStreamAudio
	} else {
		pkt.PayloadType = payloadStreamVideo
	}
	pkt.SSRC = producerSSRC(p.sessionID, tr.ID)
	return pkt.Marshal()
}

func producerSSRC(sessionID string, trackID int) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(sessionID); i++ {
		h ^= uint32(sessionID[i])
		h *= 16777619
	}
	return h ^ uint32(trackID)
}
