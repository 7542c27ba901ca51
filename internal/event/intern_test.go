package event

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"github.com/globalmmcs/globalmmcs/internal/testutil"
)

// roomWires is the rooms-flood decode mix: the 32 room topics from two
// sources, round-robin, as one connection's reader sees them.
func roomWires() [][]byte {
	payload := bytes.Repeat([]byte{0xd5}, 172)
	var wires [][]byte
	for i := 0; i < 64; i++ {
		e := New(fmt.Sprintf("/bench/room/%d/audio", i%32), KindRTP, payload)
		e.Source, e.ID = fmt.Sprintf("pub-%d", i/32), uint64(i+1)
		wires = append(wires, Marshal(e))
	}
	return wires
}

func BenchmarkUnmarshalInternInterleaved(b *testing.B) {
	wires := roomWires()
	var in Interner
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := UnmarshalIntern(wires[i%len(wires)], &in); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// TestInterleavedDecodeAllocs gates the decode state's point: once the
// table holds a conference's topics and sources, decoding allocates one
// slab per slabEvents events and nothing else.
func TestInterleavedDecodeAllocs(t *testing.T) {
	testutil.SkipAllocGateUnderRace(t)
	wires := roomWires()
	var in Interner
	decodeAll := func() {
		for _, w := range wires {
			if _, err := UnmarshalIntern(w, &in); err != nil {
				t.Fatal(err)
			}
		}
	}
	decodeAll() // warm-up: every string enters the table
	perEvent := testing.AllocsPerRun(50, decodeAll) / float64(len(wires))
	if perEvent > 0.05 {
		t.Fatalf("interleaved decode allocated %.3f times per event after warm-up, want <= 0.05", perEvent)
	}
}

// sameEvent compares every field, treating nil and empty Headers and
// Payload alike (a decoded event never distinguishes them on the wire).
func sameEvent(a, b *Event) bool {
	if len(a.Headers) != len(b.Headers) || !bytes.Equal(a.Payload, b.Payload) {
		return false
	}
	for k, v := range a.Headers {
		if w, ok := b.Headers[k]; !ok || w != v {
			return false
		}
	}
	x, y := *a, *b
	x.Headers, y.Headers, x.Payload, y.Payload = nil, nil, nil, nil
	return reflect.DeepEqual(x, y)
}

// corruptions are decode failures that strike after a slot has been
// partly filled — strings interned, the Headers map allocated.
func corruptions() map[string][]byte {
	rich := sample()
	rich.RSeq, rich.Mask = 77, 0xff00
	wire := Marshal(rich)
	badKind := bytes.Clone(wire)
	badKind[2] = 0xee // rejected last, with every field already decoded
	return map[string][]byte{
		"truncated trailer": wire[:len(wire)-3],
		"truncated payload": wire[:len(wire)-20],
		"invalid kind":      badKind,
		"trailing bytes":    append(bytes.Clone(wire), 0),
	}
}

// TestDecodeErrorLeavesNoResidue: a decode that fails mid-burst hands
// its slab slot back zeroed, so the event decoded next — into that very
// slot — is field for field what a fresh Interner produces.
func TestDecodeErrorLeavesNoResidue(t *testing.T) {
	plain := New("/plain/topic", KindData, nil) // no headers, payload, rseq or mask to mask residue
	plain.Source, plain.ID = "plain-src", 9
	good := Marshal(plain)
	for name, bad := range corruptions() {
		t.Run(name, func(t *testing.T) {
			var in Interner
			if _, err := UnmarshalIntern(good, &in); err != nil {
				t.Fatal(err)
			}
			slot := &in.slab[0]
			if _, err := UnmarshalIntern(bad, &in); err == nil {
				t.Fatal("corrupt wire decoded")
			}
			if !reflect.DeepEqual(*slot, Event{}) {
				t.Fatalf("failed decode left its slot dirty: %+v", *slot)
			}
			next, err := UnmarshalIntern(good, &in)
			if err != nil {
				t.Fatal(err)
			}
			if next != slot {
				t.Fatal("failed decode consumed its slot")
			}
			fresh, err := UnmarshalIntern(good, new(Interner))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(next, fresh) {
				t.Fatalf("decode after an error differs from a fresh decode:\n got %+v\nwant %+v", next, fresh)
			}
		})
	}
}

// TestSlabSiblingsIndependent: events decoded into one slab share an
// allocation and nothing else — mutating or cloning one never shows in
// its neighbours.
func TestSlabSiblingsIndependent(t *testing.T) {
	var in Interner
	wire := Marshal(sample())
	var got []*Event
	for i := 0; i < 3; i++ {
		e, err := UnmarshalIntern(bytes.Clone(wire), &in)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, e)
	}
	want := sample()
	mid := got[1]
	clone := mid.Clone()
	mid.Topic, mid.Source, mid.ID, mid.TTL, mid.Reliable = "/rewritten", "someone-else", 1, 0, false
	mid.Headers["codec"] = "rewritten"
	mid.Payload[0] ^= 0xff
	mid.RSeq, mid.Mask = 5, 6
	clone.Headers["ssrc"] = "rewritten"
	clone.Payload[1] ^= 0xff
	for _, i := range []int{0, 2} {
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("sibling %d changed: %+v", i, got[i])
		}
	}
}

// TestInternerBounded: whatever a peer sends, the table retains at
// most one string per slot.
func TestInternerBounded(t *testing.T) {
	var in Interner
	topic := bytes.Repeat([]byte{'t'}, MaxTopicLen)
	for i := 0; i < 10_000; i++ {
		copy(topic, fmt.Sprintf("/%d/", i))
		if got := in.intern(topic); got != string(topic) {
			t.Fatalf("interned %q as %q", topic, got)
		}
	}
	retained := 0
	for _, s := range in.strs {
		retained += len(s)
	}
	if limit := len(in.strs) * MaxTopicLen; retained > limit {
		t.Fatalf("table retains %d bytes, bound is %d", retained, limit)
	}
	if retained == 0 {
		t.Fatal("table retained nothing")
	}
}

// TestFrameArena: arena frames are byte for byte the package-level
// encodings, and a chunk is never written again once a frame was cut
// from it — frames encoded earlier stay identical however many follow.
func TestFrameArena(t *testing.T) {
	var a FrameArena
	e := sample()
	e.Payload = bytes.Repeat([]byte{7}, 1200)
	var frames []Frame
	var snaps [][]byte
	for i := 0; i < 200; i++ { // ~250 KB: several chunks
		e.ID = uint64(i)
		f := a.NewFrame(e)
		if i%2 == 1 {
			f = a.NewFrameWithRSeqSlot(e)
			if !f.HasRSeqSlot() {
				t.Fatal("slot frame has no rseq slot")
			}
		}
		got, err := f.Decode()
		if err != nil {
			t.Fatal(err)
		}
		got.RSeq = 0
		if !sameEvent(got, e) {
			t.Fatalf("frame %d decodes to %+v", i, got)
		}
		if cap(f.Bytes()) != f.Len() {
			t.Fatalf("frame %d can be appended into its neighbour", i)
		}
		frames = append(frames, f)
		snaps = append(snaps, bytes.Clone(f.Bytes()))
	}
	for i, f := range frames {
		if !bytes.Equal(f.Bytes(), snaps[i]) {
			t.Fatalf("frame %d was rewritten by a later encode", i)
		}
	}
	big := New("/big", KindData, make([]byte, frameArenaSize))
	if f := a.NewFrame(big); f.Len() < frameArenaSize {
		t.Fatalf("large frame truncated to %d bytes", f.Len())
	}
}

func FuzzUnmarshal(f *testing.F) {
	rich := sample()
	f.Add(Marshal(rich))
	rich.RSeq = 12345
	f.Add(Marshal(rich))
	rich.Mask = 0xdeadbeef
	f.Add(Marshal(rich))
	rich.RSeq = 0
	f.Add(Marshal(rich))
	f.Add(Marshal(New("/t", KindData, nil)))
	for _, bad := range corruptions() {
		f.Add(bad)
	}
	f.Add([]byte{})
	f.Add([]byte{wireMagic, wireVersion, byte(KindRTP), 1, flagHeaders | flagRSeq | flagMask})

	plain := New("/plain/topic", KindData, []byte("p"))
	plain.Source, plain.ID = "plain-src", 9
	good := Marshal(plain)
	fresh, err := UnmarshalIntern(good, new(Interner))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var in Interner
		e, err := UnmarshalIntern(data, &in)
		ref, refErr := Unmarshal(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("interned decode: %v, plain decode: %v", err, refErr)
		}
		if err == nil {
			if !reflect.DeepEqual(e, ref) {
				t.Fatalf("interned decode %+v differs from plain decode %+v", e, ref)
			}
			again, err := Unmarshal(Marshal(e))
			if err != nil {
				t.Fatalf("re-encoding a decoded event does not decode: %v", err)
			}
			if !sameEvent(again, e) {
				t.Fatalf("round trip changed the event:\n got %+v\nwant %+v", again, e)
			}
		}
		next, err := UnmarshalIntern(good, &in)
		if err != nil {
			t.Fatalf("decode after fuzzed input: %v", err)
		}
		if !reflect.DeepEqual(next, fresh) {
			t.Fatalf("fuzzed input left residue in the next event:\n got %+v\nwant %+v", next, fresh)
		}
	})
}
