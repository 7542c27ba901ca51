package event

import (
	"bytes"
	"testing"
)

func frameEvent() *Event {
	e := New("/media/video/42", KindRTP, []byte("payload-bytes"))
	e.Source = "client-7"
	e.ID = 99
	e.Headers = map[string]string{"k": "v"}
	return e
}

func TestFrameRoundTrip(t *testing.T) {
	e := frameEvent()
	f := NewFrame(e)
	if f.Len() != len(Marshal(e)) {
		t.Fatalf("frame len %d != marshal len %d", f.Len(), len(Marshal(e)))
	}
	got, err := f.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if got.Topic != e.Topic || got.ID != e.ID || got.Source != e.Source ||
		got.TTL != e.TTL || !bytes.Equal(got.Payload, e.Payload) {
		t.Fatalf("decode mismatch: %+v vs %+v", got, e)
	}
}

func TestFrameTTLPatch(t *testing.T) {
	e := frameEvent()
	e.TTL = 9
	f := NewFrame(e)
	if f.TTL() != 9 {
		t.Fatalf("TTL() = %d, want 9", f.TTL())
	}
	g := f.WithTTL(8)
	if g == f {
		t.Fatal("WithTTL with a different TTL must copy")
	}
	if g.TTL() != 8 || f.TTL() != 9 {
		t.Fatalf("patch leaked: g=%d f=%d", g.TTL(), f.TTL())
	}
	// Everything except the TTL byte is identical.
	ge, err := g.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if ge.TTL != 8 || ge.Topic != e.Topic || !bytes.Equal(ge.Payload, e.Payload) {
		t.Fatalf("patched frame decode mismatch: %+v", ge)
	}
	// Same TTL returns the identical frame (no copy).
	if f.WithTTL(9) != f {
		t.Fatal("WithTTL with the same TTL should return the receiver")
	}
}

func TestRSeqWireRoundTrip(t *testing.T) {
	e := frameEvent()
	e.Reliable = true
	e.RSeq = 0xDEADBEEFCAFE
	got, err := Unmarshal(Marshal(e))
	if err != nil {
		t.Fatal(err)
	}
	if got.RSeq != e.RSeq {
		t.Fatalf("RSeq = %d, want %d", got.RSeq, e.RSeq)
	}
	if got.Topic != e.Topic || !bytes.Equal(got.Payload, e.Payload) {
		t.Fatalf("decode mismatch: %+v vs %+v", got, e)
	}
	// Absent RSeq costs nothing on the wire and decodes to 0.
	e.RSeq = 0
	got, err = Unmarshal(Marshal(e))
	if err != nil {
		t.Fatal(err)
	}
	if got.RSeq != 0 {
		t.Fatalf("untagged event decoded RSeq %d", got.RSeq)
	}
}

func TestFrameRSeqPatch(t *testing.T) {
	e := frameEvent()
	e.Reliable = true
	f := NewFrameWithRSeqSlot(e)
	if !f.HasRSeqSlot() {
		t.Fatal("slot frame has no rseq slot")
	}
	before := MarshalCalls()
	a := f.WithRSeq(7)
	b := f.WithRSeq(8)
	if d := MarshalCalls() - before; d != 0 {
		t.Fatalf("WithRSeq marshalled %d times, want 0", d)
	}
	for want, g := range map[uint64]*Frame{7: a, 8: b} {
		if g.RSeq() != want {
			t.Fatalf("RSeq() = %d, want %d", g.RSeq(), want)
		}
		ge, err := g.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if ge.RSeq != want || ge.Topic != e.Topic || !bytes.Equal(ge.Payload, e.Payload) {
			t.Fatalf("patched decode mismatch: %+v", ge)
		}
	}
	// Frames without the slot refuse the patch loudly.
	plain := NewFrame(frameEvent())
	defer func() {
		if recover() == nil {
			t.Fatal("WithRSeq on a slot-less frame did not panic")
		}
	}()
	plain.WithRSeq(1)
}

func TestRSeqTruncatedTail(t *testing.T) {
	e := frameEvent()
	e.RSeq = 42
	raw := Marshal(e)
	if _, err := Unmarshal(raw[:len(raw)-3]); err == nil {
		t.Fatal("truncated rseq tail decoded without error")
	}
}

func TestFrameFromBytes(t *testing.T) {
	e := frameEvent()
	raw := Marshal(e)
	f := FrameFromBytes(raw)
	if !bytes.Equal(f.Bytes(), raw) {
		t.Fatal("FrameFromBytes must wrap the given bytes")
	}
	if f.TTL() != e.TTL {
		t.Fatalf("TTL = %d, want %d", f.TTL(), e.TTL)
	}
}

func TestMaskWireRoundTrip(t *testing.T) {
	e := frameEvent()
	e.Mask = 0x8000000000000001
	got, err := Unmarshal(Marshal(e))
	if err != nil {
		t.Fatal(err)
	}
	if got.Mask != e.Mask {
		t.Fatalf("Mask = %#x, want %#x", got.Mask, e.Mask)
	}
	// Mask and trailing rseq coexist: mask sits before the rseq tail.
	e.Reliable = true
	e.RSeq = 0xCAFE
	got, err = Unmarshal(Marshal(e))
	if err != nil {
		t.Fatal(err)
	}
	if got.Mask != e.Mask || got.RSeq != e.RSeq {
		t.Fatalf("mask+rseq decode: mask %#x rseq %#x, want %#x %#x",
			got.Mask, got.RSeq, e.Mask, e.RSeq)
	}
	// An unconstrained (zero) mask costs nothing on the wire.
	e.Mask, e.Reliable, e.RSeq = 0, false, 0
	if got, err = Unmarshal(Marshal(e)); err != nil || got.Mask != 0 {
		t.Fatalf("zero-mask decode: %v mask %#x", err, got.Mask)
	}
}

func TestFrameMaskPatch(t *testing.T) {
	e := frameEvent()
	e.Mask = ^uint64(0) // placeholder: encode the slot, patch per link
	f := NewFrame(e)
	if !f.HasMaskSlot() {
		t.Fatal("masked frame has no mask slot")
	}
	before := MarshalCalls()
	a := f.WithMask(0b101)
	if d := MarshalCalls() - before; d != 0 {
		t.Fatalf("WithMask marshalled %d times, want 0", d)
	}
	if a.Mask() != 0b101 || f.Mask() != ^uint64(0) {
		t.Fatalf("patch leaked: a=%#x f=%#x", a.Mask(), f.Mask())
	}
	ae, err := a.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if ae.Mask != 0b101 || ae.Topic != e.Topic || !bytes.Equal(ae.Payload, e.Payload) {
		t.Fatalf("patched decode mismatch: %+v", ae)
	}
	if f.WithMask(^uint64(0)) != f {
		t.Fatal("WithMask with the same mask should return the receiver")
	}

	// With a trailing rseq slot, the mask patch lands before the rseq
	// bytes and WithRSeq still patches the tail.
	e.Reliable = true
	rf := NewFrameWithRSeqSlot(e)
	g := rf.WithMask(7).WithRSeq(42)
	ge, err := g.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if ge.Mask != 7 || ge.RSeq != 42 {
		t.Fatalf("mask+rseq patch: mask %#x rseq %d, want 7 42", ge.Mask, ge.RSeq)
	}

	// Frames without the slot refuse the patch loudly.
	plain := NewFrame(frameEvent())
	defer func() {
		if recover() == nil {
			t.Fatal("WithMask on a slot-less frame did not panic")
		}
	}()
	plain.WithMask(1)
}

// TestFrameAroundEqualsMarshal is the golden equivalence for frames
// built in place: for payload lengths straddling every width of the
// length varint, the frame wrapped around payload bytes already in a
// buffer is byte for byte Marshal of the same event and rseq, decodes
// back to it, and retags in place.
func TestFrameAroundEqualsMarshal(t *testing.T) {
	const headroom = 96
	for _, n := range []int{0, 1, 127, 128, 16383, 16384, 64<<10 + 123} {
		e := frameEvent()
		e.Reliable = true
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*7 + n)
		}
		buf := make([]byte, headroom+n+RSeqSlotLen)
		copy(buf[headroom:], payload)

		f := NewFrameAround(buf, headroom, n, e)
		if !f.HasRSeqSlot() {
			t.Fatalf("len %d: no rseq slot", n)
		}
		for _, rseq := range []uint64{1, 0xDEADBEEFCAFE} {
			f.StampRSeq(rseq)
			want := *e
			want.Payload, want.RSeq = payload, rseq
			if !bytes.Equal(f.Bytes(), Marshal(&want)) {
				t.Fatalf("len %d rseq %d: in-place frame differs from Marshal", n, rseq)
			}
			got, err := f.Decode()
			if err != nil {
				t.Fatalf("len %d: decode: %v", n, err)
			}
			if got.RSeq != rseq || got.Topic != e.Topic || got.Source != e.Source || got.ID != e.ID ||
				got.Headers["k"] != "v" || !got.Reliable || !bytes.Equal(got.Payload, payload) {
				t.Fatalf("len %d: decoded %+v", n, got)
			}
		}
		if &f.Bytes()[len(f.Bytes())-1] != &buf[len(buf)-1] {
			t.Fatalf("len %d: frame does not alias the caller's buffer", n)
		}
	}

	// The mask field keeps its place between payload and rseq.
	e := frameEvent()
	e.Mask = 0b1011
	buf := make([]byte, headroom+4+8+RSeqSlotLen)
	copy(buf[headroom:], "mask")
	f := NewFrameAround(buf, headroom, 4, e)
	f.StampRSeq(9)
	want := *e
	want.Payload, want.RSeq = []byte("mask"), 9
	if !bytes.Equal(f.Bytes(), Marshal(&want)) {
		t.Fatal("masked in-place frame differs from Marshal")
	}

	// Too little headroom is a sizing bug in the caller, reported loudly.
	defer func() {
		if recover() == nil {
			t.Fatal("NewFrameAround with no headroom did not panic")
		}
	}()
	NewFrameAround(make([]byte, 16), 4, 4, frameEvent())
}
