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
