// Package rtp implements the subset of RTP (RFC 3550) that Global-MMCS
// media paths use: packet encoding, per-source reception statistics
// with the standard interarrival-jitter estimator, and a playout jitter
// buffer.
package rtp

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is the RTP protocol version emitted and accepted.
const Version = 2

// HeaderLen is the fixed RTP header size without CSRCs.
const HeaderLen = 12

// Payload types used by the Global-MMCS media plane. Values follow the
// RFC 3551 static assignments where one exists.
const (
	// PayloadPCMU is G.711 µ-law audio (type 0, 8 kHz).
	PayloadPCMU = 0
	// PayloadH261 is H.261 video (type 31, 90 kHz).
	PayloadH261 = 31
)

// Clock rates for the payload types above, in Hz.
const (
	// AudioClockRate is the RTP timestamp rate for audio payloads.
	AudioClockRate = 8000
	// VideoClockRate is the RTP timestamp rate for video payloads.
	VideoClockRate = 90000
)

// Packet is a parsed RTP packet.
type Packet struct {
	// Padding mirrors the P bit.
	Padding bool
	// Marker mirrors the M bit (end of video frame / start of talkspurt).
	Marker bool
	// PayloadType identifies the codec (7 bits).
	PayloadType uint8
	// SequenceNumber increments by one per packet, wrapping at 2^16.
	SequenceNumber uint16
	// Timestamp is the media clock sampling instant.
	Timestamp uint32
	// SSRC identifies the synchronization source.
	SSRC uint32
	// CSRC lists contributing sources (at most 15).
	CSRC []uint32
	// Payload is the codec data.
	Payload []byte
}

// Packet codec errors.
var (
	ErrShortPacket = errors.New("rtp: packet too short")
	ErrBadVersion  = errors.New("rtp: unsupported version")
	ErrTooManyCSRC = errors.New("rtp: more than 15 CSRCs")
)

// MarshalSize returns the wire size of p.
func (p *Packet) MarshalSize() int {
	return HeaderLen + 4*len(p.CSRC) + len(p.Payload)
}

// AppendMarshal appends the wire encoding of p to dst.
func (p *Packet) AppendMarshal(dst []byte) ([]byte, error) {
	if len(p.CSRC) > 15 {
		return nil, ErrTooManyCSRC
	}
	b0 := byte(Version << 6)
	if p.Padding {
		b0 |= 1 << 5
	}
	b0 |= byte(len(p.CSRC))
	b1 := p.PayloadType & 0x7F
	if p.Marker {
		b1 |= 1 << 7
	}
	dst = append(dst, b0, b1)
	dst = binary.BigEndian.AppendUint16(dst, p.SequenceNumber)
	dst = binary.BigEndian.AppendUint32(dst, p.Timestamp)
	dst = binary.BigEndian.AppendUint32(dst, p.SSRC)
	for _, c := range p.CSRC {
		dst = binary.BigEndian.AppendUint32(dst, c)
	}
	return append(dst, p.Payload...), nil
}

// Marshal returns the wire encoding of p.
func (p *Packet) Marshal() ([]byte, error) {
	return p.AppendMarshal(make([]byte, 0, p.MarshalSize()))
}

// Unmarshal parses b into p. The payload aliases b.
func (p *Packet) Unmarshal(b []byte) error {
	if len(b) < HeaderLen {
		return ErrShortPacket
	}
	if v := b[0] >> 6; v != Version {
		return fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	p.Padding = b[0]&(1<<5) != 0
	cc := int(b[0] & 0x0F)
	hasExt := b[0]&(1<<4) != 0
	p.Marker = b[1]&(1<<7) != 0
	p.PayloadType = b[1] & 0x7F
	p.SequenceNumber = binary.BigEndian.Uint16(b[2:4])
	p.Timestamp = binary.BigEndian.Uint32(b[4:8])
	p.SSRC = binary.BigEndian.Uint32(b[8:12])
	off := HeaderLen + 4*cc
	if len(b) < off {
		return ErrShortPacket
	}
	if cc > 0 {
		p.CSRC = make([]uint32, cc)
		for i := range p.CSRC {
			p.CSRC[i] = binary.BigEndian.Uint32(b[HeaderLen+4*i:])
		}
	} else {
		p.CSRC = nil
	}
	if hasExt {
		// Header extension: 2 bytes profile, 2 bytes length (in 32-bit
		// words), then the extension body. We skip it.
		if len(b) < off+4 {
			return ErrShortPacket
		}
		extWords := int(binary.BigEndian.Uint16(b[off+2 : off+4]))
		off += 4 + 4*extWords
		if len(b) < off {
			return ErrShortPacket
		}
	}
	payload := b[off:]
	if p.Padding {
		if len(payload) == 0 {
			return ErrShortPacket
		}
		pad := int(payload[len(payload)-1])
		if pad == 0 || pad > len(payload) {
			return fmt.Errorf("rtp: invalid padding length %d", pad)
		}
		payload = payload[:len(payload)-pad]
		p.Padding = false // consumed
	}
	if len(payload) == 0 {
		p.Payload = nil
	} else {
		p.Payload = payload[:len(payload):len(payload)]
	}
	return nil
}

// String renders a short description for logs.
func (p *Packet) String() string {
	return fmt.Sprintf("rtp{pt=%d seq=%d ts=%d ssrc=%08x m=%t %dB}",
		p.PayloadType, p.SequenceNumber, p.Timestamp, p.SSRC, p.Marker, len(p.Payload))
}
