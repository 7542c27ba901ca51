// Package media provides the deterministic media workloads and measuring
// receivers used by the Global-MMCS examples and the benchmark harness.
// The video source reproduces the paper's 600 Kbps test stream; the audio
// source is a 64 Kbps G.711-style stream. Receivers measure one-way delay
// and RFC 3550 interarrival jitter per packet, which is exactly what
// Figure 3 of the paper plots.
package media

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"github.com/globalmmcs/globalmmcs/internal/rtp"
)

// VideoConfig shapes a synthetic video stream.
type VideoConfig struct {
	// BitrateBps is the target bitrate. Default 600_000 (the paper's
	// test stream).
	BitrateBps int
	// FPS is the frame rate. Default 25.
	FPS int
	// MTU is the maximum RTP payload per packet. Default 1200.
	MTU int
	// IFrameInterval is the GOP length: every Nth frame is an I-frame
	// roughly 3x the size of a P-frame. Default 12.
	IFrameInterval int
	// SSRC identifies the stream. Default 0x600D5EED.
	SSRC uint32
	// Seed drives deterministic frame-size variation. Default 1.
	Seed uint64
}

func (c VideoConfig) withDefaults() VideoConfig {
	if c.BitrateBps <= 0 {
		c.BitrateBps = 600_000
	}
	if c.FPS <= 0 {
		c.FPS = 25
	}
	if c.MTU <= 0 {
		c.MTU = 1200
	}
	if c.IFrameInterval <= 0 {
		c.IFrameInterval = 12
	}
	if c.SSRC == 0 {
		c.SSRC = 0x600D5EED
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// VideoSource deterministically generates the RTP packets of a synthetic
// video stream: I-frames every IFrameInterval frames, sized so the mean
// bitrate matches BitrateBps, each frame packetized at the MTU with the
// marker bit on the final packet. Not safe for concurrent use.
type VideoSource struct {
	cfg     VideoConfig
	rng     *rand.Rand
	nextSeq uint16
	frameN  int
	pSize   int
	iSize   int
}

// NewVideoSource creates a video source.
func NewVideoSource(cfg VideoConfig) *VideoSource {
	cfg = cfg.withDefaults()
	bytesPerFrame := cfg.BitrateBps / 8 / cfg.FPS
	// One I-frame (3x) plus N-1 P-frames per GOP must average to
	// bytesPerFrame: (3P + (N-1)P)/N = bytesPerFrame.
	n := cfg.IFrameInterval
	p := bytesPerFrame * n / (n + 2)
	return &VideoSource{
		cfg:   cfg,
		rng:   rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xABCD)),
		pSize: p,
		iSize: 3 * p,
	}
}

// Config returns the effective configuration.
func (v *VideoSource) Config() VideoConfig { return v.cfg }

// PacketsPerSecond estimates the mean packet rate of the stream.
func (v *VideoSource) PacketsPerSecond() float64 {
	perGOP := 0
	n := v.cfg.IFrameInterval
	perGOP += (v.iSize + v.cfg.MTU - 1) / v.cfg.MTU
	perGOP += (n - 1) * ((v.pSize + v.cfg.MTU - 1) / v.cfg.MTU)
	return float64(perGOP) * float64(v.cfg.FPS) / float64(n)
}

// NextFrame returns the RTP packets of the next frame. Payload bytes are
// deterministic and carry the sequence number for integrity checking.
func (v *VideoSource) NextFrame() []*rtp.Packet {
	size := v.pSize
	if v.frameN%v.cfg.IFrameInterval == 0 {
		size = v.iSize
	}
	// ±20% deterministic variation.
	size += int(v.rng.Int64N(int64(size)/5+1)) - size/10
	if size < 64 {
		size = 64
	}
	ts := uint32(v.frameN) * uint32(rtp.VideoClockRate/v.cfg.FPS)
	var pkts []*rtp.Packet
	for off := 0; off < size; off += v.cfg.MTU {
		n := min(v.cfg.MTU, size-off)
		p := &rtp.Packet{
			PayloadType:    rtp.PayloadH261,
			SequenceNumber: v.nextSeq,
			Timestamp:      ts,
			SSRC:           v.cfg.SSRC,
			Marker:         off+n >= size,
			Payload:        fillPayload(n, v.nextSeq),
		}
		v.nextSeq++
		pkts = append(pkts, p)
	}
	v.frameN++
	return pkts
}

// FrameInterval returns the wall-clock duration of one frame in
// nanoseconds.
func (v *VideoSource) FrameIntervalNanos() int64 {
	return int64(1e9) / int64(v.cfg.FPS)
}

// AudioConfig shapes a synthetic audio stream.
type AudioConfig struct {
	// BitrateBps is the codec rate. Default 64_000 (G.711).
	BitrateBps int
	// FrameMillis is the packetization interval. Default 20.
	FrameMillis int
	// SSRC identifies the stream. Default 0xA0D105EC.
	SSRC uint32
}

func (c AudioConfig) withDefaults() AudioConfig {
	if c.BitrateBps <= 0 {
		c.BitrateBps = 64_000
	}
	if c.FrameMillis <= 0 {
		c.FrameMillis = 20
	}
	if c.SSRC == 0 {
		c.SSRC = 0xA0D105EC
	}
	return c
}

// AudioSource deterministically generates a G.711-style audio stream:
// fixed-size packets at a fixed interval. Not safe for concurrent use.
type AudioSource struct {
	cfg     AudioConfig
	payload int
	tsStep  uint32
	nextSeq uint16
	n       int
}

// NewAudioSource creates an audio source.
func NewAudioSource(cfg AudioConfig) *AudioSource {
	cfg = cfg.withDefaults()
	payload := cfg.BitrateBps / 8 * cfg.FrameMillis / 1000
	return &AudioSource{
		cfg:     cfg,
		payload: payload,
		tsStep:  uint32(rtp.AudioClockRate * cfg.FrameMillis / 1000),
	}
}

// Config returns the effective configuration.
func (a *AudioSource) Config() AudioConfig { return a.cfg }

// PacketsPerSecond returns the packet rate.
func (a *AudioSource) PacketsPerSecond() float64 {
	return 1000 / float64(a.cfg.FrameMillis)
}

// FrameIntervalNanos returns the wall-clock duration of one packet.
func (a *AudioSource) FrameIntervalNanos() int64 {
	return int64(a.cfg.FrameMillis) * int64(1e6)
}

// NextPacket returns the next audio packet.
func (a *AudioSource) NextPacket() *rtp.Packet {
	p := &rtp.Packet{
		PayloadType:    rtp.PayloadPCMU,
		SequenceNumber: a.nextSeq,
		Timestamp:      uint32(a.n) * a.tsStep,
		SSRC:           a.cfg.SSRC,
		Marker:         a.n == 0,
		Payload:        fillPayload(a.payload, a.nextSeq),
	}
	a.nextSeq++
	a.n++
	return p
}

// fillPayload builds a deterministic payload of n bytes tagged with the
// sequence number so receivers can verify integrity.
func fillPayload(n int, seq uint16) []byte {
	if n < 2 {
		n = 2
	}
	b := make([]byte, n)
	binary.BigEndian.PutUint16(b, seq)
	for i := 2; i < n; i++ {
		b[i] = byte(i ^ int(seq))
	}
	return b
}

// VerifyPayload checks a payload produced by fillPayload against the
// packet's sequence number.
func VerifyPayload(p *rtp.Packet) error {
	if len(p.Payload) < 2 {
		return fmt.Errorf("media: payload too short (%d)", len(p.Payload))
	}
	if got := binary.BigEndian.Uint16(p.Payload); got != p.SequenceNumber {
		return fmt.Errorf("media: payload tag %d != seq %d", got, p.SequenceNumber)
	}
	for i := 2; i < len(p.Payload); i++ {
		if p.Payload[i] != byte(i^int(p.SequenceNumber)) {
			return fmt.Errorf("media: payload corrupted at byte %d", i)
		}
	}
	return nil
}
