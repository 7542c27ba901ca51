package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/media"
	"github.com/globalmmcs/globalmmcs/internal/metrics"
	"github.com/globalmmcs/globalmmcs/internal/rtp"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// MediaKind selects the capacity workload.
type MediaKind int

// Workload kinds.
const (
	// MediaAudio is the 64 Kbps / 50 pps G.711-style stream.
	MediaAudio MediaKind = iota + 1
	// MediaVideo is the 600 Kbps video stream.
	MediaVideo
)

// String implements fmt.Stringer.
func (k MediaKind) String() string {
	switch k {
	case MediaAudio:
		return "audio"
	case MediaVideo:
		return "video"
	default:
		return fmt.Sprintf("media(%d)", int(k))
	}
}

// Quality gates for "very good quality" (paper §3.2). A configuration
// passes when mean delay, jitter and loss are all under these bounds.
const (
	// QualityMaxDelayMs bounds acceptable mean one-way delay.
	QualityMaxDelayMs = 150.0
	// QualityMaxJitterMs bounds acceptable mean jitter.
	QualityMaxJitterMs = 30.0
	// QualityMaxLoss bounds acceptable loss rate.
	QualityMaxLoss = 0.02
)

// CapacityConfig parameterises one capacity measurement point.
type CapacityConfig struct {
	// Kind selects audio or video.
	Kind MediaKind
	// Clients is the number of receivers attached to the single broker.
	Clients int
	// Packets is how many packets the sender emits.
	Packets int
	// Measured is how many receivers are instrumented (default 12).
	Measured int
	// Testbed supplies link emulation; zero uses calibrated defaults.
	Testbed Testbed
}

func (c CapacityConfig) withDefaults() CapacityConfig {
	if c.Kind == 0 {
		c.Kind = MediaAudio
	}
	if c.Clients <= 0 {
		c.Clients = 100
	}
	if c.Packets <= 0 {
		c.Packets = 500
	}
	if c.Measured <= 0 {
		c.Measured = 12
	}
	if c.Measured > c.Clients {
		c.Measured = c.Clients
	}
	c.Testbed = c.Testbed.withDefaults()
	return c
}

// CapacityResult is one row of the capacity table.
type CapacityResult struct {
	Kind         MediaKind
	Clients      int
	MeanDelayMs  float64
	P99DelayMs   float64
	MeanJitterMs float64
	LossRate     float64
	GoodQuality  bool
	Elapsed      time.Duration
}

// RunCapacity measures one capacity point: one sender streaming to
// cfg.Clients receivers through a single broker.
func RunCapacity(cfg CapacityConfig) (*CapacityResult, error) {
	cfg = cfg.withDefaults()
	b := broker.New(broker.Config{ID: "cap-broker", QueueDepth: 2048})
	defer b.Stop()

	topic := "/xgsp/session/cap/" + cfg.Kind.String()
	hist := metrics.NewLatencyHistogram()
	clockRate := rtp.AudioClockRate
	if cfg.Kind == MediaVideo {
		clockRate = rtp.VideoClockRate
	}
	measured := make([]*media.Receiver, cfg.Measured)
	for i := range measured {
		measured[i] = media.NewReceiver(media.ReceiverConfig{
			ClockRate:      clockRate,
			DelayHistogram: hist,
		})
	}

	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	var wg sync.WaitGroup
	for i := range cfg.Clients {
		isMeasured := i < cfg.Measured
		c, err := b.LocalClient(fmt.Sprintf("cap-recv-%d", i), cfg.Testbed.receiverProfile(isMeasured))
		if err != nil {
			return nil, err
		}
		defer c.Close()
		sub, err := c.Subscribe(topic, 1024)
		if err != nil {
			return nil, err
		}
		var handle func(*event.Event)
		if isMeasured {
			handle = measured[i].HandleEvent
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			drainSub(ctx, sub, handle)
		}()
	}

	sender, err := b.LocalClient("cap-sender", transport.LinkProfile{})
	if err != nil {
		return nil, err
	}
	defer sender.Close()

	start := time.Now()
	ms := media.NewSender(sender, topic)
	switch cfg.Kind {
	case MediaAudio:
		if _, err := ms.SendAudio(media.NewAudioSource(media.AudioConfig{}), cfg.Packets, ctx.Done()); err != nil {
			return nil, err
		}
	case MediaVideo:
		if _, err := ms.SendVideo(media.NewVideoSource(media.VideoConfig{}), cfg.Packets, ctx.Done()); err != nil {
			return nil, err
		}
	}
	waitForReceivers(measured, cfg.Packets, 15*time.Second)
	elapsed := time.Since(start)
	stop()
	wg.Wait()

	res := &CapacityResult{
		Kind:    cfg.Kind,
		Clients: cfg.Clients,
		Elapsed: elapsed,
	}
	var jitterSum, lossSum float64
	for _, r := range measured {
		snap := r.Snapshot()
		jitterSum += snap.JitterMs
		lossSum += snap.LossRate
	}
	res.MeanDelayMs = hist.Mean()
	res.P99DelayMs = hist.Quantile(0.99)
	res.MeanJitterMs = jitterSum / float64(len(measured))
	res.LossRate = lossSum / float64(len(measured))
	res.GoodQuality = res.MeanDelayMs < QualityMaxDelayMs &&
		res.MeanJitterMs < QualityMaxJitterMs &&
		res.LossRate < QualityMaxLoss
	return res, nil
}

// waitForReceivers blocks until every instrumented receiver has seen
// expected packets, progress stalls, or the deadline passes.
func waitForReceivers(receivers []*media.Receiver, expected int, maxWait time.Duration) {
	deadline := time.Now().Add(maxWait)
	var last uint64
	stable := 0
	for time.Now().Before(deadline) {
		var total uint64
		for _, r := range receivers {
			total += r.Snapshot().Received
		}
		if total >= uint64(len(receivers)*expected) {
			return
		}
		if total == last {
			stable++
			if stable >= 20 {
				return
			}
		} else {
			stable = 0
			last = total
		}
		time.Sleep(100 * time.Millisecond)
	}
}
