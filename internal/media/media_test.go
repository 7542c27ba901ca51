package media

import (
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/metrics"
	"github.com/globalmmcs/globalmmcs/internal/rtp"
)

func TestVideoSourceBitrate(t *testing.T) {
	v := NewVideoSource(VideoConfig{})
	var bytes int
	const seconds = 10
	frames := v.Config().FPS * seconds
	for range frames {
		for _, p := range v.NextFrame() {
			bytes += len(p.Payload)
		}
	}
	bps := float64(bytes) * 8 / seconds
	if bps < 450_000 || bps > 750_000 {
		t.Fatalf("measured bitrate = %.0f bps, want ~600k", bps)
	}
}

func TestVideoSourceDeterministic(t *testing.T) {
	a := NewVideoSource(VideoConfig{Seed: 7})
	b := NewVideoSource(VideoConfig{Seed: 7})
	for range 50 {
		fa, fb := a.NextFrame(), b.NextFrame()
		if len(fa) != len(fb) {
			t.Fatal("frame packet counts differ")
		}
		for i := range fa {
			if fa[i].SequenceNumber != fb[i].SequenceNumber || len(fa[i].Payload) != len(fb[i].Payload) {
				t.Fatal("frames differ between equal seeds")
			}
		}
	}
	c := NewVideoSource(VideoConfig{Seed: 8})
	sameSizes := true
	for range 50 {
		fa, fc := a.NextFrame(), c.NextFrame()
		if len(fa) != len(fc) || len(fa[0].Payload) != len(fc[0].Payload) {
			sameSizes = false
			break
		}
	}
	if sameSizes {
		t.Error("different seeds produced identical frame sizes")
	}
}

func TestVideoSourceSequenceAndTimestamps(t *testing.T) {
	v := NewVideoSource(VideoConfig{})
	var lastSeq uint16
	first := true
	for n := range 10 {
		pkts := v.NextFrame()
		wantTS := uint32(n) * uint32(rtp.VideoClockRate/v.Config().FPS)
		for i, p := range pkts {
			if p.Timestamp != wantTS {
				t.Fatalf("frame %d ts = %d, want %d", n, p.Timestamp, wantTS)
			}
			if !first && p.SequenceNumber != lastSeq+1 {
				t.Fatalf("seq jump: %d -> %d", lastSeq, p.SequenceNumber)
			}
			lastSeq = p.SequenceNumber
			first = false
			isLast := i == len(pkts)-1
			if p.Marker != isLast {
				t.Fatalf("marker on packet %d of %d = %v", i, len(pkts), p.Marker)
			}
			if len(p.Payload) > v.Config().MTU {
				t.Fatalf("payload %d exceeds MTU", len(p.Payload))
			}
		}
	}
}

func TestVideoSourceIFramesLarger(t *testing.T) {
	v := NewVideoSource(VideoConfig{})
	iFrame := v.NextFrame() // frame 0 is an I-frame
	pFrame := v.NextFrame()
	iBytes, pBytes := 0, 0
	for _, p := range iFrame {
		iBytes += len(p.Payload)
	}
	for _, p := range pFrame {
		pBytes += len(p.Payload)
	}
	if iBytes <= pBytes {
		t.Fatalf("I-frame %dB not larger than P-frame %dB", iBytes, pBytes)
	}
}

func TestVideoPacketsPerSecond(t *testing.T) {
	v := NewVideoSource(VideoConfig{})
	pps := v.PacketsPerSecond()
	if pps < 40 || pps > 120 {
		t.Fatalf("pps = %v, want 40..120 for 600kbps/1200B", pps)
	}
}

func TestAudioSource(t *testing.T) {
	a := NewAudioSource(AudioConfig{})
	if a.PacketsPerSecond() != 50 {
		t.Fatalf("pps = %v, want 50", a.PacketsPerSecond())
	}
	p0 := a.NextPacket()
	p1 := a.NextPacket()
	if len(p0.Payload) != 160 {
		t.Fatalf("payload = %dB, want 160", len(p0.Payload))
	}
	if !p0.Marker || p1.Marker {
		t.Error("marker should be set only on first packet")
	}
	if p1.Timestamp-p0.Timestamp != 160 {
		t.Fatalf("ts step = %d, want 160", p1.Timestamp-p0.Timestamp)
	}
	if p1.SequenceNumber != p0.SequenceNumber+1 {
		t.Fatal("sequence not contiguous")
	}
}

func TestPayloadVerification(t *testing.T) {
	a := NewAudioSource(AudioConfig{})
	p := a.NextPacket()
	if err := VerifyPayload(p); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	p.Payload[10] ^= 0xFF
	if err := VerifyPayload(p); err == nil {
		t.Fatal("corrupted payload accepted")
	}
	p2 := a.NextPacket()
	p2.SequenceNumber += 7
	if err := VerifyPayload(p2); err == nil {
		t.Fatal("mismatched seq accepted")
	}
}

// chanPublisher collects published events for tests.
type chanPublisher struct {
	ch chan *event.Event
}

func (c *chanPublisher) PublishEvent(e *event.Event) error {
	c.ch <- e
	return nil
}

func TestSenderReceiverEndToEnd(t *testing.T) {
	pub := &chanPublisher{ch: make(chan *event.Event, 1000)}
	sender := NewSender(pub, "/media/test/video")
	v := NewVideoSource(VideoConfig{FPS: 100}) // fast frames for test speed

	done := make(chan struct{})
	const packets = 60
	go func() {
		defer close(pub.ch)
		if _, err := sender.SendVideo(v, packets, done); err != nil {
			t.Errorf("SendVideo: %v", err)
		}
	}()

	delays := metrics.NewSeries("delay", 1000)
	jitters := metrics.NewSeries("jitter", 1000)
	r := NewReceiver(ReceiverConfig{
		ClockRate:      rtp.VideoClockRate,
		DelaySeries:    delays,
		JitterSeries:   jitters,
		VerifyPayloads: true,
	})
	for e := range pub.ch {
		r.HandleEvent(e)
	}

	snap := r.Snapshot()
	if snap.Received != packets {
		t.Fatalf("received %d, want %d", snap.Received, packets)
	}
	if snap.Corrupted != 0 {
		t.Fatalf("corrupted = %d", snap.Corrupted)
	}
	if snap.Lost != 0 {
		t.Fatalf("lost = %d", snap.Lost)
	}
	if snap.MeanDelayMs < 0 || snap.MeanDelayMs > 100 {
		t.Fatalf("mean delay = %v ms, implausible in-proc", snap.MeanDelayMs)
	}
	if delays.Len() == 0 || jitters.Len() == 0 {
		t.Fatal("series not recorded")
	}
}

func TestSenderAudioPacing(t *testing.T) {
	pub := &chanPublisher{ch: make(chan *event.Event, 100)}
	sender := NewSender(pub, "/media/test/audio")
	a := NewAudioSource(AudioConfig{FrameMillis: 10})
	start := time.Now()
	const packets = 10
	if _, err := sender.SendAudio(a, packets, nil); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// 10 packets at 10ms spacing: at least ~90ms.
	if elapsed < 80*time.Millisecond {
		t.Fatalf("pacing too fast: %v", elapsed)
	}
	close(pub.ch)
	count := 0
	for range pub.ch {
		count++
	}
	if count != packets {
		t.Fatalf("published %d, want %d", count, packets)
	}
}

func TestSenderStopsOnDone(t *testing.T) {
	pub := &chanPublisher{ch: make(chan *event.Event, 10000)}
	sender := NewSender(pub, "/t/x")
	a := NewAudioSource(AudioConfig{})
	done := make(chan struct{})
	close(done)
	sent, err := sender.SendAudio(a, 1000, done)
	if err != nil {
		t.Fatal(err)
	}
	if sent > 2 {
		t.Fatalf("sent %d after done closed, want <= 2", sent)
	}
}

func TestReceiverIgnoresNonRTP(t *testing.T) {
	r := NewReceiver(ReceiverConfig{ClockRate: rtp.AudioClockRate})
	r.HandleEvent(event.New("/x", event.KindChat, []byte("hello")))
	if snap := r.Snapshot(); snap.Received != 0 {
		t.Fatal("chat event counted as media")
	}
}

func TestReceiverCountsCorruptRTP(t *testing.T) {
	r := NewReceiver(ReceiverConfig{ClockRate: rtp.AudioClockRate})
	r.HandleEvent(event.New("/x", event.KindRTP, []byte{1, 2, 3}))
	if snap := r.Snapshot(); snap.Corrupted != 1 {
		t.Fatalf("corrupted = %d, want 1", snap.Corrupted)
	}
}

func TestReceiverDetectsLoss(t *testing.T) {
	r := NewReceiver(ReceiverConfig{ClockRate: rtp.AudioClockRate})
	a := NewAudioSource(AudioConfig{})
	for i := range 20 {
		p := a.NextPacket()
		if i%5 == 2 {
			continue // drop
		}
		b, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		r.HandleEvent(event.New("/x", event.KindRTP, b))
	}
	snap := r.Snapshot()
	if snap.Lost == 0 {
		t.Fatal("loss not detected")
	}
	if snap.LossRate < 0.1 || snap.LossRate > 0.3 {
		t.Fatalf("loss rate = %v, want ~0.2", snap.LossRate)
	}
}
