package rtp

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func samplePacket() *Packet {
	return &Packet{
		Marker:         true,
		PayloadType:    PayloadH261,
		SequenceNumber: 4660,
		Timestamp:      90000,
		SSRC:           0xDEADBEEF,
		CSRC:           []uint32{1, 2},
		Payload:        []byte("frame data"),
	}
}

func TestPacketRoundtrip(t *testing.T) {
	p := samplePacket()
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != p.MarshalSize() {
		t.Fatalf("marshal size = %d, want %d", len(b), p.MarshalSize())
	}
	var got Packet
	if err := got.Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*p, got) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, *p)
	}
}

func TestPacketRoundtripMinimal(t *testing.T) {
	p := &Packet{PayloadType: PayloadPCMU, SequenceNumber: 1, Timestamp: 2, SSRC: 3}
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != HeaderLen {
		t.Fatalf("minimal packet size = %d, want %d", len(b), HeaderLen)
	}
	var got Packet
	if err := got.Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*p, got) {
		t.Fatalf("mismatch: %+v vs %+v", *p, got)
	}
}

func TestPacketUnmarshalErrors(t *testing.T) {
	if err := new(Packet).Unmarshal(make([]byte, 5)); !errors.Is(err, ErrShortPacket) {
		t.Errorf("short = %v", err)
	}
	b, _ := samplePacket().Marshal()
	b[0] = 0x00 // version 0
	if err := new(Packet).Unmarshal(b); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version = %v", err)
	}
	// CSRC count beyond data.
	hdr := make([]byte, HeaderLen)
	hdr[0] = byte(Version<<6) | 5
	if err := new(Packet).Unmarshal(hdr); !errors.Is(err, ErrShortPacket) {
		t.Errorf("csrc overflow = %v", err)
	}
}

func TestPacketTooManyCSRC(t *testing.T) {
	p := samplePacket()
	p.CSRC = make([]uint32, 16)
	if _, err := p.Marshal(); !errors.Is(err, ErrTooManyCSRC) {
		t.Fatalf("err = %v", err)
	}
}

func TestPacketPaddingStripped(t *testing.T) {
	p := &Packet{PayloadType: 0, SequenceNumber: 9, Timestamp: 8, SSRC: 7, Payload: []byte("abcd")}
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Append 4 bytes of padding manually and set the P bit.
	b = append(b, 0, 0, 0, 4)
	b[0] |= 1 << 5
	var got Packet
	if err := got.Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, []byte("abcd")) {
		t.Fatalf("payload = %q", got.Payload)
	}
}

func TestPacketExtensionSkipped(t *testing.T) {
	p := &Packet{PayloadType: 5, SequenceNumber: 1, Timestamp: 1, SSRC: 1, Payload: []byte("xy")}
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Splice a 1-word extension between header and payload.
	ext := []byte{0xBE, 0xDE, 0x00, 0x01, 0xAA, 0xBB, 0xCC, 0xDD}
	withExt := append(append(append([]byte{}, b[:HeaderLen]...), ext...), b[HeaderLen:]...)
	withExt[0] |= 1 << 4
	var got Packet
	if err := got.Unmarshal(withExt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, []byte("xy")) {
		t.Fatalf("payload = %q", got.Payload)
	}
}

func TestPacketPropertyRoundtrip(t *testing.T) {
	f := func(marker bool, pt uint8, seq uint16, ts, ssrc uint32, payload []byte) bool {
		p := &Packet{
			Marker:         marker,
			PayloadType:    pt & 0x7F,
			SequenceNumber: seq,
			Timestamp:      ts,
			SSRC:           ssrc,
			Payload:        payload,
		}
		if len(p.Payload) == 0 {
			p.Payload = nil
		}
		b, err := p.Marshal()
		if err != nil {
			return false
		}
		var got Packet
		if err := got.Unmarshal(b); err != nil {
			return false
		}
		return reflect.DeepEqual(*p, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPacketUnmarshalFuzzNoPanic(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 42))
	for range 3000 {
		b := make([]byte, rng.IntN(64))
		for i := range b {
			b[i] = byte(rng.UintN(256))
		}
		var p Packet
		_ = p.Unmarshal(b)
	}
}

func TestSeqLess(t *testing.T) {
	cases := []struct {
		a, b uint16
		want bool
	}{
		{1, 2, true},
		{2, 1, false},
		{1, 1, false},
		{65535, 0, true}, // wraparound
		{0, 65535, false},
		{0, 32767, true},
		{0, 32769, false},
	}
	for _, tc := range cases {
		if got := SeqLess(tc.a, tc.b); got != tc.want {
			t.Errorf("SeqLess(%d,%d) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestSourceStatsInOrder(t *testing.T) {
	s := &SourceStats{ClockRate: AudioClockRate}
	base := time.Unix(1000, 0)
	for i := range 100 {
		s.Update(uint16(i), uint32(i*160), base.Add(time.Duration(i)*20*time.Millisecond))
	}
	if s.PacketsReceived() != 100 {
		t.Errorf("received = %d", s.PacketsReceived())
	}
	if s.ExpectedPackets() != 100 {
		t.Errorf("expected = %d", s.ExpectedPackets())
	}
	if s.CumulativeLost() != 0 {
		t.Errorf("lost = %d", s.CumulativeLost())
	}
	// Perfectly paced stream: jitter ~ 0.
	if s.Jitter() > 1 {
		t.Errorf("jitter = %v, want ~0 for perfectly paced stream", s.Jitter())
	}
}

func TestSourceStatsLoss(t *testing.T) {
	s := &SourceStats{ClockRate: AudioClockRate}
	base := time.Unix(1000, 0)
	// Drop every 4th packet.
	for i := range 100 {
		if i%4 == 3 {
			continue
		}
		s.Update(uint16(i), uint32(i*160), base.Add(time.Duration(i)*20*time.Millisecond))
	}
	// 25 packets were dropped, but the trailing drop (seq 99) is invisible
	// to the receiver: expected = 0..98, so 24 are known lost.
	if got := s.CumulativeLost(); got != 24 {
		t.Errorf("lost = %d, want 24", got)
	}
	if lr := s.LossRate(); lr < 0.2 || lr > 0.3 {
		t.Errorf("loss rate = %v, want ~0.25", lr)
	}
}

func TestSourceStatsSequenceWrap(t *testing.T) {
	s := &SourceStats{ClockRate: VideoClockRate}
	base := time.Unix(1000, 0)
	start := 65530
	for i := range 20 {
		seq := uint16(start + i)
		s.Update(seq, uint32(i*3000), base.Add(time.Duration(i)*40*time.Millisecond))
	}
	if got := s.ExtendedHighest(); got != uint32(1<<16)|uint32(uint16(start+19)) {
		t.Errorf("extended highest = %#x", got)
	}
	if s.CumulativeLost() != 0 {
		t.Errorf("lost = %d across wrap", s.CumulativeLost())
	}
}

func TestSourceStatsJitterGrowsWithVariance(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	steady := &SourceStats{ClockRate: AudioClockRate}
	jittery := &SourceStats{ClockRate: AudioClockRate}
	base := time.Unix(2000, 0)
	for i := range 500 {
		at := base.Add(time.Duration(i) * 20 * time.Millisecond)
		steady.Update(uint16(i), uint32(i*160), at)
		noise := time.Duration(rng.Int64N(int64(10 * time.Millisecond)))
		jittery.Update(uint16(i), uint32(i*160), at.Add(noise))
	}
	if jittery.Jitter() <= steady.Jitter() {
		t.Errorf("jittery %v <= steady %v", jittery.Jitter(), steady.Jitter())
	}
	if d := jittery.JitterDuration(); d < 500*time.Microsecond || d > 10*time.Millisecond {
		t.Errorf("jitter duration = %v, want a few ms for U(0,10ms) noise", d)
	}
}

func TestSourceStatsResyncAfterBigJump(t *testing.T) {
	s := &SourceStats{ClockRate: AudioClockRate}
	base := time.Unix(1000, 0)
	s.Update(1, 160, base)
	s.Update(2, 320, base.Add(20*time.Millisecond))
	// Jump far beyond maxDropout.
	s.Update(40000, 160000, base.Add(40*time.Millisecond))
	if s.ExpectedPackets() != 1 {
		t.Errorf("expected after resync = %d, want 1", s.ExpectedPackets())
	}
}

func TestJitterBufferInOrder(t *testing.T) {
	j := NewJitterBuffer(8)
	for i := range 5 {
		j.Push(&Packet{SequenceNumber: uint16(i)})
	}
	for i := range 5 {
		p := j.Pop()
		if p == nil || p.SequenceNumber != uint16(i) {
			t.Fatalf("pop %d = %v", i, p)
		}
	}
	if j.Pop() != nil {
		t.Fatal("empty buffer returned a packet")
	}
}

func TestJitterBufferReorders(t *testing.T) {
	j := NewJitterBuffer(8)
	j.Push(&Packet{SequenceNumber: 10})
	j.Push(&Packet{SequenceNumber: 12})
	j.Push(&Packet{SequenceNumber: 11})
	for _, want := range []uint16{10, 11, 12} {
		p := j.Pop()
		if p == nil || p.SequenceNumber != want {
			t.Fatalf("pop = %v, want seq %d", p, want)
		}
	}
}

func TestJitterBufferWaitsOnGap(t *testing.T) {
	j := NewJitterBuffer(8)
	j.Push(&Packet{SequenceNumber: 0})
	j.Push(&Packet{SequenceNumber: 2}) // gap at 1
	if p := j.Pop(); p == nil || p.SequenceNumber != 0 {
		t.Fatalf("pop = %v", p)
	}
	if p := j.Pop(); p != nil {
		t.Fatalf("pop across unfilled gap = %v, want nil", p)
	}
	j.Push(&Packet{SequenceNumber: 1})
	if p := j.Pop(); p == nil || p.SequenceNumber != 1 {
		t.Fatalf("pop = %v", p)
	}
}

func TestJitterBufferSkipsGapWhenFull(t *testing.T) {
	j := NewJitterBuffer(3)
	j.Push(&Packet{SequenceNumber: 1}) // 0 missing
	j.Push(&Packet{SequenceNumber: 2})
	j.Push(&Packet{SequenceNumber: 3})
	// next expected is 1 (first push started at 1)... push an earlier gap:
	j2 := NewJitterBuffer(3)
	j2.Push(&Packet{SequenceNumber: 100})
	if p := j2.Pop(); p == nil || p.SequenceNumber != 100 {
		t.Fatalf("pop = %v", p)
	}
	// Now create a gap at 101 and fill the buffer beyond capacity.
	j2.Push(&Packet{SequenceNumber: 102})
	j2.Push(&Packet{SequenceNumber: 103})
	j2.Push(&Packet{SequenceNumber: 104})
	p := j2.Pop()
	if p == nil || p.SequenceNumber != 102 {
		t.Fatalf("pop after forced skip = %v, want 102", p)
	}
}

func TestJitterBufferRejectsLateAndDuplicate(t *testing.T) {
	j := NewJitterBuffer(8)
	j.Push(&Packet{SequenceNumber: 5})
	if p := j.Pop(); p.SequenceNumber != 5 {
		t.Fatal("setup")
	}
	if j.Push(&Packet{SequenceNumber: 4}) {
		t.Error("late packet accepted")
	}
	j.Push(&Packet{SequenceNumber: 7})
	if j.Push(&Packet{SequenceNumber: 7}) {
		t.Error("duplicate accepted")
	}
}

func TestJitterBufferWrapAround(t *testing.T) {
	j := NewJitterBuffer(8)
	j.Push(&Packet{SequenceNumber: 65534})
	j.Push(&Packet{SequenceNumber: 65535})
	j.Push(&Packet{SequenceNumber: 0})
	j.Push(&Packet{SequenceNumber: 1})
	for _, want := range []uint16{65534, 65535, 0, 1} {
		p := j.Pop()
		if p == nil || p.SequenceNumber != want {
			t.Fatalf("pop = %v, want %d", p, want)
		}
	}
}

func BenchmarkRTPMarshal(b *testing.B) {
	p := samplePacket()
	p.Payload = make([]byte, 1200)
	buf := make([]byte, 0, 1400)
	b.ReportAllocs()
	for b.Loop() {
		var err error
		buf, err = p.AppendMarshal(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRTPUnmarshal(b *testing.B) {
	p := samplePacket()
	p.Payload = make([]byte, 1200)
	buf, err := p.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		var q Packet
		if err := q.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSourceStatsUpdate(b *testing.B) {
	s := &SourceStats{ClockRate: VideoClockRate}
	base := time.Now()
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		s.Update(uint16(i), uint32(i*3000), base.Add(time.Duration(i)*time.Millisecond))
		i++
	}
}
