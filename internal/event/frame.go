package event

import "encoding/binary"

// ttlOffset is the fixed position of the TTL byte in the wire layout
// (magic, version, kind, then TTL — see AppendMarshal).
const ttlOffset = 3

// Frame is an immutable, pre-encoded wire representation of one event.
// A broker fanning an event out to many sessions encodes it once into a
// Frame and shares the Frame across every outbound queue; per-hop TTL
// rewrites are a one-byte header patch on a fresh copy (WithTTL) instead
// of a full re-marshal or per-peer Clone.
//
// The byte slice returned by Bytes must never be mutated: it is shared
// concurrently by every session the frame was fanned out to. (The one
// in-place write, StampRSeq, is for a frame not shared yet.)
type Frame struct {
	b []byte
}

// NewFrame encodes e into a frame. The event must not be mutated while
// the frame is in flight (the frame captures its current encoding).
func NewFrame(e *Event) *Frame {
	return &Frame{b: Marshal(e)}
}

// Bytes returns the encoded event. Callers must treat it as read-only.
func (f *Frame) Bytes() []byte { return f.b }

// Len returns the encoded length in bytes.
func (f *Frame) Len() int { return len(f.b) }

// TTL returns the hop budget encoded in the frame header.
func (f *Frame) TTL() uint8 { return f.b[ttlOffset] }

// WithTTL returns a frame identical to f except for the TTL header byte.
// If the TTL already matches, f itself is returned; otherwise the frame
// buffer is copied once — a single memmove shared by all downstream
// consumers, which is what makes broker TTL decrement cheap.
func (f *Frame) WithTTL(ttl uint8) *Frame {
	if f.b[ttlOffset] == ttl {
		return f
	}
	b := make([]byte, len(f.b))
	copy(b, f.b)
	b[ttlOffset] = ttl
	return &Frame{b: b}
}

// Decode unmarshals the frame back into an event. The returned event's
// payload aliases the frame buffer and must not be mutated.
func (f *Frame) Decode() (*Event, error) { return Unmarshal(f.b) }

// flagsOffset is the fixed position of the flags byte in the wire layout
// (magic, version, kind, ttl, flags — see AppendMarshal).
const flagsOffset = 4

// NewFrameWithRSeqSlot encodes e with a trailing patchable rseq field
// (the placeholder value is irrelevant — WithRSeq stamps the real one).
// A broker fanning a reliable event out encodes this slot frame once and
// derives one 8-byte-patched copy per target, which is what extends the
// encode-once fan-out path to the reliable/control plane.
func NewFrameWithRSeqSlot(e *Event) *Frame {
	c := withRSeqSlot(e)
	return &Frame{b: Marshal(&c)}
}

// withRSeqSlot returns a copy of e that encodes with a trailing rseq
// field: an event carrying no rseq gets a placeholder, which WithRSeq
// or StampRSeq always overwrites.
func withRSeqSlot(e *Event) Event {
	c := *e
	if c.RSeq == 0 {
		c.RSeq = ^uint64(0)
	}
	return c
}

// frameArenaSize is the size of one FrameArena chunk: a few hundred
// small media frames, or one ingest burst at media MTU.
const frameArenaSize = 64 << 10

// FrameArena encodes frames back to back into shared chunks, so the
// events of a burst routed together cost one allocation for all their
// encodings instead of one each. A chunk is never rewritten and never
// recycled: when the next frame does not fit, a fresh chunk takes over
// and the old one lives until the last frame cut from it is dropped.
// That is why no ownership has to be proven — a frame from an arena is
// as immutable and as shareable as one from NewFrame — and the price is
// that one frame still queued keeps its whole chunk reachable. The zero
// value is ready. Not safe for concurrent use.
type FrameArena struct {
	free []byte // unused tail of the current chunk: len 0, cap the room left
}

// NewFrame is the package-level NewFrame, encoding into the arena.
func (a *FrameArena) NewFrame(e *Event) Frame {
	need := encodedBound(e)
	if need > frameArenaSize/4 {
		// A large frame gains nothing from sharing a chunk and would
		// strand the rest of the current one.
		return Frame{b: Marshal(e)}
	}
	if cap(a.free) < need {
		a.free = make([]byte, 0, frameArenaSize)
	}
	b := AppendMarshal(a.free, e)
	a.free = b[len(b):]
	return Frame{b: b[:len(b):len(b)]}
}

// NewFrameWithRSeqSlot is the package-level NewFrameWithRSeqSlot,
// encoding into the arena.
func (a *FrameArena) NewFrameWithRSeqSlot(e *Event) Frame {
	c := withRSeqSlot(e)
	return a.NewFrame(&c)
}

// RSeqSlotLen is the size of the trailing rseq field.
const RSeqSlotLen = 8

// NewFrameAround builds e's frame, with an rseq slot, around payload
// bytes already in place at buf[off:off+n]: the header is encoded to end
// exactly at off, the trailing fields follow the payload, and the frame
// aliases buf — byte for byte Marshal of e with that payload and rseq,
// without copying the payload. e.Payload is ignored, and buf is the
// frame's from here on. buf needs the header's length before off and
// RSeqSlotLen (8 more with e.Mask set) after the payload; lacking
// either is a sizing bug in the caller and panics.
func NewFrameAround(buf []byte, off, n int, e *Event) *Frame {
	c := withRSeqSlot(e)
	var scratch [128]byte
	hdr := appendMarshal(scratch[:0], &c, n, false)
	start, end := off-len(hdr), off+n
	if c.Mask != 0 {
		end += 8
	}
	if start < 0 || end+RSeqSlotLen > len(buf) {
		panic("event: NewFrameAround: buffer lacks room for the header or trailer")
	}
	copy(buf[start:], hdr)
	if c.Mask != 0 {
		binary.BigEndian.PutUint64(buf[end-8:], c.Mask)
	}
	binary.BigEndian.PutUint64(buf[end:], c.RSeq)
	end += RSeqSlotLen
	return &Frame{b: buf[start:end:end]}
}

// StampRSeq overwrites the trailing rseq field in place. Only for a
// frame nobody else holds yet (NewFrameAround, an unshared
// NewFrameWithRSeqSlot); one fanned out to several sessions takes the
// copying WithRSeq.
func (f *Frame) StampRSeq(rseq uint64) {
	if !f.HasRSeqSlot() {
		panic("event: StampRSeq on a frame without an rseq slot")
	}
	binary.BigEndian.PutUint64(f.b[len(f.b)-RSeqSlotLen:], rseq)
}

// HasRSeqSlot reports whether the frame carries a trailing rseq field.
func (f *Frame) HasRSeqSlot() bool { return f.b[flagsOffset]&flagRSeq != 0 }

// RSeq returns the trailing reliable sequence number, 0 when absent.
func (f *Frame) RSeq() uint64 {
	if !f.HasRSeqSlot() {
		return 0
	}
	return binary.BigEndian.Uint64(f.b[len(f.b)-8:])
}

// WithRSeq returns a frame identical to f except for the trailing rseq
// field, which must be present (NewFrameWithRSeqSlot). The buffer is
// copied once and 8 bytes are patched — no re-marshal, no header-map
// clone — so per-target reliable tagging is a memmove, not an encode.
func (f *Frame) WithRSeq(rseq uint64) *Frame {
	if !f.HasRSeqSlot() {
		panic("event: WithRSeq on a frame without an rseq slot")
	}
	b := make([]byte, len(f.b))
	copy(b, f.b)
	binary.BigEndian.PutUint64(b[len(b)-8:], rseq)
	return &Frame{b: b}
}

// HasMaskSlot reports whether the frame carries a mesh serve-mask field.
func (f *Frame) HasMaskSlot() bool { return f.b[flagsOffset]&flagMask != 0 }

// maskOffset returns the byte offset of the mask field, which sits at the
// end of the frame except when an rseq field follows it.
func (f *Frame) maskOffset() int {
	off := len(f.b) - 8
	if f.b[flagsOffset]&flagRSeq != 0 {
		off -= 8
	}
	return off
}

// Mask returns the mesh serve-mask, 0 when absent.
func (f *Frame) Mask() uint64 {
	if !f.HasMaskSlot() {
		return 0
	}
	return binary.BigEndian.Uint64(f.b[f.maskOffset():])
}

// WithMask returns a frame identical to f except for the mesh serve-mask
// field, which must be present (encode the event with a non-zero Mask).
// If the mask already matches, f itself is returned; otherwise the buffer
// is copied once and 8 bytes are patched, so staging one forwarded copy
// per mesh link is a memmove per link, not an encode per link.
func (f *Frame) WithMask(mask uint64) *Frame {
	if !f.HasMaskSlot() {
		panic("event: WithMask on a frame without a mask slot")
	}
	off := f.maskOffset()
	if binary.BigEndian.Uint64(f.b[off:]) == mask {
		return f
	}
	b := make([]byte, len(f.b))
	copy(b, f.b)
	binary.BigEndian.PutUint64(b[off:], mask)
	return &Frame{b: b}
}
