package globalmmcs

import (
	"context"
	"io"

	"github.com/globalmmcs/globalmmcs/internal/streaming"
)

// Player is a minimal RTSP client standing in for the Real and Windows
// Media players of the paper's §2.1: it DESCRIBEs a session stream,
// SETUPs tracks onto local UDP ports, PLAYs, and counts received RTP
// packets per track.
type Player struct {
	p *streaming.Player
}

// DialPlayer connects to an rtsp:// URL, typically Server.StreamURL.
func DialPlayer(url string) (*Player, error) {
	p, err := streaming.DialPlayer(url)
	if err != nil {
		return nil, err
	}
	return &Player{p: p}, nil
}

// Describe fetches the stream description and returns the advertised
// track ids by kind ("audio", "video").
func (p *Player) Describe() (map[string]int, error) { return p.p.Describe() }

// Setup prepares one track for reception on a fresh local UDP port.
func (p *Player) Setup(kind string, trackID int) (*PlayerTrack, error) {
	t, err := p.p.Setup(kind, trackID)
	if err != nil {
		return nil, err
	}
	return &PlayerTrack{t: t}, nil
}

// Play starts delivery on all set-up tracks.
func (p *Player) Play() error { return p.p.Play() }

// Pause suspends delivery.
func (p *Player) Pause() error { return p.p.Pause() }

// Teardown ends the RTSP session and closes all tracks.
func (p *Player) Teardown() error { return p.p.Teardown() }

// Close releases the player's sockets without an RTSP exchange.
func (p *Player) Close() { p.p.Close() }

// PlayerTrack is one receiving track of a Player.
type PlayerTrack struct {
	t *streaming.PlayerTrack
}

// Received returns the packets received so far.
func (t *PlayerTrack) Received() uint64 { return t.t.Received() }

// LastPayloadType returns the RTP payload type of the last packet.
func (t *PlayerTrack) LastPayloadType() uint8 { return t.t.LastPayloadType() }

// Archive records a session's media to a writer and replays it later —
// the paper's conference archiving service.
type Archive struct{}

// Record consumes packets from sub until the stream closes or ctx is
// cancelled, writing sequence-stamped, CRC-framed records to w (the
// broker's durable topic log format — see internal/topiclog). It
// returns the number of packets recorded. Each packet is encoded and
// written as it arrives — nothing is retained, so recording never pins
// the broker's receive buffers.
func (Archive) Record(ctx context.Context, w io.Writer, sub *MediaSubscription) (int, error) {
	count := 0
	for {
		p, err := sub.Recv(ctx)
		if err != nil {
			return count, nil
		}
		if err := streaming.WriteFrame(w, uint64(count+1), p.e); err != nil {
			return count, err
		}
		count++
	}
}

// Replay reads an archive and republishes it onto one media channel of
// target, so a session recorded earlier plays into a new one. With
// pace=true the original inter-packet gaps are reproduced; cancelling
// ctx stops the replay mid-archive. It returns the number of packets
// replayed.
func (Archive) Replay(ctx context.Context, r io.Reader, target *Session, kind MediaKind, pace bool) (int, error) {
	stream, ok := target.stream(kind)
	if !ok {
		return 0, tag(ErrNoSuchMedia, errMediaKind(kind))
	}
	var arch streaming.Archiver
	n, err := arch.Replay(ctx, r, target.c.bc, pace, func(string) string { return stream.Topic })
	return n, wrapErr(err)
}
