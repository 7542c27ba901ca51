package globalmmcs

import (
	"context"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/media"
	"github.com/globalmmcs/globalmmcs/internal/metrics"
	"github.com/globalmmcs/globalmmcs/internal/rtp"
)

// MediaKind enumerates a session's media channel kinds.
type MediaKind string

// Media channel kinds.
const (
	Audio   MediaKind = "audio"
	Video   MediaKind = "video"
	Chat    MediaKind = "chat"
	Control MediaKind = "control"
)

// MediaStream describes one media channel of a session.
type MediaStream struct {
	// Kind is the channel kind (Audio, Video, Chat, Control).
	Kind MediaKind
	// Codec names the negotiated codec (e.g. "PCMU", "H261").
	Codec string
	// ClockRate is the RTP timestamp rate.
	ClockRate int
	// Topic is the broker topic carrying the channel.
	Topic string
}

// RTPPacket is a parsed RTP packet.
type RTPPacket struct {
	PayloadType    uint8
	SequenceNumber uint16
	Timestamp      uint32
	SSRC           uint32
	Marker         bool
	Payload        []byte
}

// ParseRTP parses RTP wire bytes.
func ParseRTP(b []byte) (*RTPPacket, error) {
	var p rtp.Packet
	if err := p.Unmarshal(b); err != nil {
		return nil, err
	}
	return &RTPPacket{
		PayloadType:    p.PayloadType,
		SequenceNumber: p.SequenceNumber,
		Timestamp:      p.Timestamp,
		SSRC:           p.SSRC,
		Marker:         p.Marker,
		Payload:        p.Payload,
	}, nil
}

// MediaPacket is one media event received from a session channel.
type MediaPacket struct {
	e *event.Event
}

// Payload returns the raw RTP wire bytes.
func (p *MediaPacket) Payload() []byte { return p.e.Payload }

// SentAt returns the wall-clock instant the sender published the packet,
// used for one-way delay measurement.
func (p *MediaPacket) SentAt() time.Time { return time.Unix(0, p.e.Timestamp) }

// RTP parses the payload as an RTP packet.
func (p *MediaPacket) RTP() (*RTPPacket, error) { return ParseRTP(p.e.Payload) }

// Clone returns a deep copy of the packet whose payload no longer
// aliases the broker's receive buffer. Call it before retaining packets
// indefinitely (an application-side jitter or replay buffer): a decoded
// packet otherwise pins the whole receive chunk (up to 256 KiB) it was
// parsed from.
func (p *MediaPacket) Clone() *MediaPacket { return &MediaPacket{e: p.e.Clone()} }

// defaultMediaBuffer is the delivery buffer of media subscriptions and
// raw event streams absent a WithBuffer option.
const defaultMediaBuffer = 256

// MediaSubscription is a Stream of one session channel's media packets,
// returned by Session.Subscribe. The default QoS drops the oldest
// buffered packet when the consumer lags, matching the broker's
// best-effort media lane; tune with WithBuffer and WithDropPolicy.
type MediaSubscription = Stream[*MediaPacket]

func newMediaSubscription(sub *broker.Subscription, reg *metrics.Registry, name string, cfg streamConfig) *MediaSubscription {
	return newStream(sub, reg, name, cfg, func(e *event.Event) (*MediaPacket, bool) {
		return &MediaPacket{e: e}, true
	})
}

// MediaSender paces a media source onto one session channel in real
// time.
type MediaSender struct {
	s *media.Sender
}

func newMediaSender(c *Client, stream MediaStream) *MediaSender {
	return &MediaSender{s: media.NewSender(c.bc, stream.Topic)}
}

// SendAudio streams packets from src until count packets are sent or
// ctx is cancelled. It returns the number sent.
func (m *MediaSender) SendAudio(ctx context.Context, src *AudioSource, packets int) (int, error) {
	n, err := m.s.SendAudio(src.src, packets, ctx.Done())
	return n, wrapErr(err)
}

// SendVideo streams frames from src until count packets are sent or ctx
// is cancelled. It returns the number sent.
func (m *MediaSender) SendVideo(ctx context.Context, src *VideoSource, packets int) (int, error) {
	n, err := m.s.SendVideo(src.src, packets, ctx.Done())
	return n, wrapErr(err)
}

// AudioConfig shapes a synthetic audio stream. The zero value is a
// 64 Kbps G.711-style stream at 20 ms packetization.
type AudioConfig struct {
	// BitrateBps is the codec rate. Default 64_000.
	BitrateBps int
	// FrameMillis is the packetization interval. Default 20.
	FrameMillis int
	// SSRC identifies the stream.
	SSRC uint32
}

// AudioSource deterministically generates a G.711-style audio stream.
// Not safe for concurrent use.
type AudioSource struct {
	src *media.AudioSource
}

// NewAudioSource creates an audio source.
func NewAudioSource(cfg AudioConfig) *AudioSource {
	return &AudioSource{src: media.NewAudioSource(media.AudioConfig{
		BitrateBps:  cfg.BitrateBps,
		FrameMillis: cfg.FrameMillis,
		SSRC:        cfg.SSRC,
	})}
}

// NextPacket returns the wire bytes of the next audio packet.
func (a *AudioSource) NextPacket() ([]byte, error) {
	return a.src.NextPacket().Marshal()
}

// VideoConfig shapes a synthetic video stream. The zero value is the
// paper's 600 Kbps / 25 fps test stream.
type VideoConfig struct {
	// BitrateBps is the target bitrate. Default 600_000.
	BitrateBps int
	// FPS is the frame rate. Default 25.
	FPS int
	// MTU is the maximum RTP payload per packet. Default 1200.
	MTU int
	// IFrameInterval is the GOP length. Default 12.
	IFrameInterval int
	// SSRC identifies the stream.
	SSRC uint32
	// Seed drives deterministic frame-size variation. Default 1.
	Seed uint64
}

// VideoSource deterministically generates the RTP packets of a synthetic
// video stream. Not safe for concurrent use.
type VideoSource struct {
	src *media.VideoSource
}

// NewVideoSource creates a video source.
func NewVideoSource(cfg VideoConfig) *VideoSource {
	return &VideoSource{src: media.NewVideoSource(media.VideoConfig{
		BitrateBps:     cfg.BitrateBps,
		FPS:            cfg.FPS,
		MTU:            cfg.MTU,
		IFrameInterval: cfg.IFrameInterval,
		SSRC:           cfg.SSRC,
		Seed:           cfg.Seed,
	})}
}

// MediaStats is a point-in-time summary of a receiver.
type MediaStats struct {
	Received    uint64
	Bytes       uint64
	Corrupted   uint64
	Lost        uint64
	LossRate    float64
	MeanDelayMs float64
	MaxDelayMs  float64
	JitterMs    float64
}

// MediaReceiver consumes media packets and accumulates one-way delay,
// RFC 3550 jitter and loss statistics — what Figure 3 of the paper
// plots. It measures packets in arrival order, as the receiver sees
// them.
type MediaReceiver struct {
	r *media.Receiver
}

// NewMediaReceiver creates a measuring receiver for a channel kind
// (Audio or Video select the matching RTP clock rate).
func NewMediaReceiver(kind MediaKind) *MediaReceiver {
	clockRate := rtp.AudioClockRate
	if kind == Video {
		clockRate = rtp.VideoClockRate
	}
	return &MediaReceiver{r: media.NewReceiver(media.ReceiverConfig{ClockRate: clockRate})}
}

// Handle processes one received packet.
func (r *MediaReceiver) Handle(p *MediaPacket) { r.r.HandleEvent(p.e) }

// Drain consumes packets from sub until the subscription closes or ctx
// is cancelled.
func (r *MediaReceiver) Drain(ctx context.Context, sub *MediaSubscription) {
	for {
		p, err := sub.Recv(ctx)
		if err != nil {
			return
		}
		r.Handle(p)
	}
}

// Stats returns the receiver's statistics.
func (r *MediaReceiver) Stats() MediaStats {
	s := r.r.Snapshot()
	return MediaStats{
		Received:    s.Received,
		Bytes:       s.Bytes,
		Corrupted:   s.Corrupted,
		Lost:        s.Lost,
		LossRate:    s.LossRate,
		MeanDelayMs: s.MeanDelayMs,
		MaxDelayMs:  s.MaxDelayMs,
		JitterMs:    s.JitterMs,
	}
}
