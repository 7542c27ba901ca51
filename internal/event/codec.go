package event

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

// Wire-format limits. They bound memory allocated while decoding input
// from untrusted connections.
const (
	// MaxTopicLen bounds the topic string on the wire.
	MaxTopicLen = 512
	// MaxSourceLen bounds the source identifier on the wire.
	MaxSourceLen = 256
	// MaxHeaders bounds the number of header pairs.
	MaxHeaders = 32
	// MaxHeaderStrLen bounds each header key or value.
	MaxHeaderStrLen = 1024
	// MaxPayloadLen bounds the payload (64 KiB fits a UDP datagram budget
	// comfortably above any RTP packet we generate).
	MaxPayloadLen = 1 << 20
	// MaxWireLen bounds a whole encoded event.
	MaxWireLen = MaxPayloadLen + MaxTopicLen + MaxSourceLen +
		MaxHeaders*(2*MaxHeaderStrLen+4) + 64
)

// wireMagic guards against framing desync; wireVersion allows evolution.
const (
	wireMagic   = 0xE5
	wireVersion = 1
)

// Codec errors.
var (
	ErrTruncated  = errors.New("event: truncated wire data")
	ErrBadMagic   = errors.New("event: bad magic byte")
	ErrBadVersion = errors.New("event: unsupported wire version")
)

// flag bits in the header byte.
const (
	flagReliable = 1 << 0
	flagHeaders  = 1 << 1
	// flagRSeq marks an encoding that ends with a fixed 8-byte big-endian
	// reliable sequence number after the payload. Keeping the field at a
	// fixed trailing offset is what lets Frame.WithRSeq patch it per
	// delivery target without re-marshalling.
	flagRSeq = 1 << 2
	// flagMask marks an encoding carrying a fixed 8-byte big-endian mesh
	// serve-mask after the payload (before the rseq field when both are
	// present). The fixed offset from the end lets Frame.WithMask patch
	// the mask per mesh link without re-marshalling.
	flagMask = 1 << 3
)

// AppendMarshal appends the wire encoding of e to dst and returns the
// extended slice. The layout is:
//
//	magic(1) version(1) kind(1) ttl(1) flags(1)
//	id(8) timestamp(8)
//	sourceLen(varint) source
//	topicLen(varint) topic
//	[nHeaders(varint) (kLen k vLen v)*]
//	payloadLen(varint) payload
//	[mask(8)]
//	[rseq(8)]
//
// The trailing mask and rseq fields are emitted only when e.Mask != 0 /
// e.RSeq != 0; their fixed positions relative to the end of the frame
// make per-target rewrites an 8-byte patch (see Frame.WithRSeq and
// Frame.WithMask).
func AppendMarshal(dst []byte, e *Event) []byte {
	return appendMarshal(dst, e, len(e.Payload), true)
}

// appendMarshal is AppendMarshal for a payload of payloadLen bytes.
// With whole unset it stops after the payload-length varint: the part
// of the layout NewFrameAround writes in front of payload bytes that
// are already in place (it then adds the trailing fields itself).
func appendMarshal(dst []byte, e *Event, payloadLen int, whole bool) []byte {
	marshalCalls.Add(1)
	var flags byte
	if e.Reliable {
		flags |= flagReliable
	}
	if len(e.Headers) > 0 {
		flags |= flagHeaders
	}
	if e.RSeq != 0 {
		flags |= flagRSeq
	}
	if e.Mask != 0 {
		flags |= flagMask
	}
	dst = append(dst, wireMagic, wireVersion, byte(e.Kind), e.TTL, flags)
	dst = binary.BigEndian.AppendUint64(dst, e.ID)
	dst = binary.BigEndian.AppendUint64(dst, uint64(e.Timestamp))
	dst = appendString(dst, e.Source)
	dst = appendString(dst, e.Topic)
	if flags&flagHeaders != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(e.Headers)))
		for k, v := range e.Headers {
			dst = appendString(dst, k)
			dst = appendString(dst, v)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(payloadLen))
	if !whole {
		return dst
	}
	dst = append(dst, e.Payload...)
	if flags&flagMask != 0 {
		dst = binary.BigEndian.AppendUint64(dst, e.Mask)
	}
	if flags&flagRSeq != 0 {
		dst = binary.BigEndian.AppendUint64(dst, e.RSeq)
	}
	return dst
}

// marshalCalls counts AppendMarshal invocations. It backs the broker's
// encode-once regression tests, which assert that fanning a reliable
// event out to K targets performs O(1) marshals.
var marshalCalls atomic.Uint64

// MarshalCalls returns the process-wide number of AppendMarshal calls.
// Test instrumentation: take a delta around the operation under test.
func MarshalCalls() uint64 { return marshalCalls.Load() }

// encodedBound returns an upper bound on the encoded length of e: the
// fixed fields and trailers, and every length prefix at its widest.
func encodedBound(e *Event) int {
	n := 80 + len(e.Source) + len(e.Topic) + len(e.Payload)
	for k, v := range e.Headers {
		n += 2*binary.MaxVarintLen64 + len(k) + len(v)
	}
	return n
}

// Marshal returns the wire encoding of e.
func Marshal(e *Event) []byte {
	return AppendMarshal(make([]byte, 0, encodedBound(e)), e)
}

// Unmarshal decodes one event from b, which must contain exactly one
// encoded event. The returned event's Payload aliases b; callers that
// retain the event beyond the life of b must Clone it.
func Unmarshal(b []byte) (*Event, error) {
	return UnmarshalIntern(b, nil)
}

// Decode-state sizing. One connection's reader decodes through one
// Interner, so these bound what a connection costs and what a retained
// event pins.
const (
	// slabEvents is how many Events one slab allocation holds: the
	// decoder allocates once per slabEvents events instead of once per
	// event, and an event retained by a consumer keeps its slab — its
	// slabEvents-1 siblings and their Headers maps — reachable.
	slabEvents = 32
	// internSets × internWays string slots: 4-way sets keep a few dozen
	// interleaved topics (a conference's rooms) and their sources
	// resident where a direct-mapped table of the same size still
	// missed a fifth of them on collisions. Worst case retained:
	// internSets*internWays strings of MaxTopicLen bytes.
	internSets = 64
	internWays = 4
)

// Interner is the per-connection decode state: a small set-associative
// table of the topic and source strings recently decoded, so a stream
// interleaving many topics (every room of a conference on one link)
// allocates each string once instead of once per event, and a slab the
// decoded Events are handed out of, one slot per event. The zero value
// is ready. Not safe for concurrent use — one per decoding goroutine.
type Interner struct {
	strs [internSets * internWays]string
	slab []Event // slots not handed out yet
}

// intern returns the string equal to b, from the table when it is
// resident. A miss allocates it and displaces the set's oldest entry.
func (in *Interner) intern(b []byte) string {
	i := int(internHash(b)%internSets) * internWays
	set := in.strs[i : i+internWays]
	for _, s := range set {
		// string(b) in a comparison does not allocate.
		if s == string(b) {
			return s
		}
	}
	s := string(b)
	copy(set[1:], set)
	set[0] = s
	return s
}

// internHash mixes b eight bytes at a time. Conference topics differ in
// one or two characters in the middle ("/room/7/audio", "/room/8/audio"),
// so every byte must reach the set index.
func internHash(b []byte) uint32 {
	const m = 0x9E3779B97F4A7C15
	h := uint64(len(b)) * m
	for ; len(b) >= 8; b = b[8:] {
		h = (h ^ binary.LittleEndian.Uint64(b)) * m
		h ^= h >> 29
	}
	var tail uint64
	for i, c := range b {
		tail |= uint64(c) << (8 * i)
	}
	h = (h ^ tail) * m
	return uint32(h >> 32)
}

// UnmarshalIntern is Unmarshal through the decode state in (which may
// be nil): strings are interned and the returned event is a slot of in's
// current slab. A failed decode hands no slot out — the slot is zeroed
// and the next decode reuses it — so an error leaves nothing behind in
// a later event.
func UnmarshalIntern(b []byte, in *Interner) (*Event, error) {
	var e *Event
	if in == nil {
		e = new(Event)
	} else {
		if len(in.slab) == 0 {
			in.slab = make([]Event, slabEvents)
		}
		e = &in.slab[0]
	}
	rest, err := e.decode(b, in)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("event: %d trailing bytes after event", len(rest))
	}
	if err != nil {
		*e = Event{}
		return nil, err
	}
	if in != nil {
		in.slab = in.slab[1:]
	}
	return e, nil
}

// decode fills the zero event e from the front of b and returns the
// remainder. On error e is left partly filled; the caller discards it.
func (e *Event) decode(b []byte, in *Interner) ([]byte, error) {
	if len(b) < 21 {
		return nil, ErrTruncated
	}
	if b[0] != wireMagic {
		return nil, ErrBadMagic
	}
	if b[1] != wireVersion {
		return nil, ErrBadVersion
	}
	e.Kind = Kind(b[2])
	e.TTL = b[3]
	flags := b[4]
	e.Reliable = flags&flagReliable != 0
	e.ID = binary.BigEndian.Uint64(b[5:13])
	e.Timestamp = int64(binary.BigEndian.Uint64(b[13:21]))
	b = b[21:]

	var err error
	var raw []byte
	if raw, b, err = readBytes(b, MaxSourceLen, "source"); err != nil {
		return nil, err
	}
	if in != nil {
		e.Source = in.intern(raw)
	} else {
		e.Source = string(raw)
	}
	if raw, b, err = readBytes(b, MaxTopicLen, "topic"); err != nil {
		return nil, err
	}
	if in != nil {
		e.Topic = in.intern(raw)
	} else {
		e.Topic = string(raw)
	}
	if flags&flagHeaders != 0 {
		n, rest, err := readUvarint(b)
		if err != nil {
			return nil, err
		}
		if n > MaxHeaders {
			return nil, fmt.Errorf("event: %d headers exceed %d", n, MaxHeaders)
		}
		b = rest
		e.Headers = make(map[string]string, n)
		for range n {
			var k, v string
			if k, b, err = readString(b, MaxHeaderStrLen, "header key"); err != nil {
				return nil, err
			}
			if v, b, err = readString(b, MaxHeaderStrLen, "header value"); err != nil {
				return nil, err
			}
			e.Headers[k] = v
		}
	}
	plen, rest, err := readUvarint(b)
	if err != nil {
		return nil, err
	}
	if plen > MaxPayloadLen {
		return nil, fmt.Errorf("event: payload length %d exceeds %d", plen, MaxPayloadLen)
	}
	b = rest
	if uint64(len(b)) < plen {
		return nil, ErrTruncated
	}
	if plen > 0 {
		e.Payload = b[:plen:plen]
	}
	b = b[plen:]
	if flags&flagMask != 0 {
		if len(b) < 8 {
			return nil, fmt.Errorf("event: reading mask: %w", ErrTruncated)
		}
		e.Mask = binary.BigEndian.Uint64(b[:8])
		b = b[8:]
	}
	if flags&flagRSeq != 0 {
		if len(b) < 8 {
			return nil, fmt.Errorf("event: reading rseq: %w", ErrTruncated)
		}
		e.RSeq = binary.BigEndian.Uint64(b[:8])
		b = b[8:]
	}
	if !e.Kind.Valid() {
		return nil, fmt.Errorf("event: invalid kind %d on wire", e.Kind)
	}
	return b, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, ErrTruncated
	}
	return v, b[n:], nil
}

func readString(b []byte, maxLen int, what string) (string, []byte, error) {
	raw, rest, err := readBytes(b, maxLen, what)
	if err != nil {
		return "", nil, err
	}
	return string(raw), rest, nil
}

// readBytes returns the length-prefixed byte run without copying; the
// result aliases b.
func readBytes(b []byte, maxLen int, what string) ([]byte, []byte, error) {
	n, rest, err := readUvarint(b)
	if err != nil {
		return nil, nil, fmt.Errorf("event: reading %s length: %w", what, err)
	}
	if n > uint64(maxLen) {
		return nil, nil, fmt.Errorf("event: %s length %d exceeds %d", what, n, maxLen)
	}
	if uint64(len(rest)) < n {
		return nil, nil, fmt.Errorf("event: reading %s: %w", what, ErrTruncated)
	}
	return rest[:n], rest[n:], nil
}
