// Package bench implements the experiment harness that regenerates every
// quantitative result in the paper:
//
//   - Figure 3 (both panels): per-packet delay and jitter for 12 of 400
//     video receivers, NaradaBrokering-style broker vs JMF-style
//     reflector.
//   - The §3.2 capacity claims: one broker sustaining >1000 audio or
//     >400 video clients with good quality.
//
// The same harness backs cmd/gmmcs-bench (full paper-scale runs) and the
// root bench_test.go (scaled-down smoke benches).
//
// Emulated testbed: both systems run over identical shaped in-process
// links (see transport.LinkProfile and DESIGN.md §7). Calibration
// constants live in calibrate.go.
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
	"github.com/globalmmcs/globalmmcs/internal/reflector"
	"github.com/globalmmcs/globalmmcs/internal/rtp"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// System selects which fan-out implementation an experiment drives.
type System int

// Systems under test.
const (
	// SystemBroker is the NaradaBrokering-substitute broker.
	SystemBroker System = iota + 1
	// SystemReflector is the JMF-style single-threaded reflector baseline.
	SystemReflector
)

// String implements fmt.Stringer.
func (s System) String() string {
	switch s {
	case SystemBroker:
		return "NaradaBrokering"
	case SystemReflector:
		return "JMF-reflector"
	default:
		return fmt.Sprintf("system(%d)", int(s))
	}
}

// Fig3Config parameterises the Figure 3 experiment.
type Fig3Config struct {
	// System selects broker or reflector.
	System System
	// Receivers is the total fan-out width (paper: 400).
	Receivers int
	// Measured is how many co-located receivers are instrumented
	// (paper: 12).
	Measured int
	// Packets is the trace length (paper: 2000).
	Packets int
	// Video shapes the stream (paper: 600 Kbps).
	Video media.VideoConfig
	// Testbed supplies the emulated link properties; zero value uses the
	// calibrated defaults.
	Testbed Testbed
}

func (c Fig3Config) withDefaults() Fig3Config {
	if c.System == 0 {
		c.System = SystemBroker
	}
	if c.Receivers <= 0 {
		c.Receivers = 400
	}
	if c.Measured <= 0 {
		c.Measured = 12
	}
	if c.Measured > c.Receivers {
		c.Measured = c.Receivers
	}
	if c.Packets <= 0 {
		c.Packets = 2000
	}
	c.Testbed = c.Testbed.withDefaults()
	return c
}

// Fig3Result carries the regenerated Figure 3 series and summary numbers.
type Fig3Result struct {
	System System
	// Delay and Jitter are per-packet-number series averaged over the
	// measured receivers, in milliseconds — the two panels of Figure 3.
	Delay  *metrics.Series
	Jitter *metrics.Series
	// MeanDelayMs and MeanJitterMs correspond to the averages printed in
	// the figure ("NaradaBrokering Avg=80.76 ms, JMF Avg=229.23 ms").
	MeanDelayMs  float64
	MeanJitterMs float64
	// Received/Lost aggregate over measured receivers.
	Received, Lost uint64
	// Elapsed is the wall-clock run time.
	Elapsed time.Duration
}

// RunFig3 executes the Figure 3 experiment for one system.
func RunFig3(cfg Fig3Config) (*Fig3Result, error) {
	cfg = cfg.withDefaults()
	switch cfg.System {
	case SystemBroker:
		return runFig3Broker(cfg)
	case SystemReflector:
		return runFig3Reflector(cfg)
	default:
		return nil, fmt.Errorf("bench: unknown system %d", cfg.System)
	}
}

const fig3Topic = "/xgsp/session/fig3/video"

func newFig3Instruments(cfg Fig3Config) (*metrics.Series, *metrics.Series, []*media.Receiver) {
	delay := metrics.NewSeries("delay-ms", cfg.Packets+16)
	jitter := metrics.NewSeries("jitter-ms", cfg.Packets+16)
	receivers := make([]*media.Receiver, cfg.Measured)
	for i := range receivers {
		receivers[i] = media.NewReceiver(media.ReceiverConfig{
			ClockRate:    rtp.VideoClockRate,
			DelaySeries:  delay,
			JitterSeries: jitter,
		})
	}
	return delay, jitter, receivers
}

func assembleFig3Result(cfg Fig3Config, delay, jitter *metrics.Series, receivers []*media.Receiver, elapsed time.Duration) *Fig3Result {
	res := &Fig3Result{
		System:       cfg.System,
		Delay:        delay,
		Jitter:       jitter,
		MeanDelayMs:  delay.Mean(),
		MeanJitterMs: jitter.Mean(),
		Elapsed:      elapsed,
	}
	for _, r := range receivers {
		snap := r.Snapshot()
		res.Received += snap.Received
		res.Lost += snap.Lost
	}
	return res
}

func runFig3Broker(cfg Fig3Config) (*Fig3Result, error) {
	b := broker.New(broker.Config{ID: "fig3-broker", QueueDepth: 2048})
	defer b.Stop()

	delay, jitter, measured := newFig3Instruments(cfg)
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	var wg sync.WaitGroup

	for i := range cfg.Receivers {
		isMeasured := i < cfg.Measured
		profile := cfg.Testbed.receiverProfile(isMeasured)
		c, err := b.LocalClient(fmt.Sprintf("recv-%d", i), profile)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		sub, err := c.Subscribe(fig3Topic, 2048)
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

	sender, err := b.LocalClient("sender", transport.LinkProfile{})
	if err != nil {
		return nil, err
	}
	defer sender.Close()

	start := time.Now()
	src := media.NewVideoSource(cfg.Video)
	if _, err := media.NewSender(sender, fig3Topic).SendVideo(src, cfg.Packets, ctx.Done()); err != nil {
		return nil, err
	}
	waitForReceivers(measured, cfg.Packets, fig3Deadline(cfg))
	elapsed := time.Since(start)
	stop()
	wg.Wait()
	return assembleFig3Result(cfg, delay, jitter, measured, elapsed), nil
}

func fig3Deadline(cfg Fig3Config) time.Duration {
	return 10*time.Second + time.Duration(cfg.Packets)*time.Millisecond
}

func runFig3Reflector(cfg Fig3Config) (*Fig3Result, error) {
	r := reflector.New(reflector.Config{ProcessingCost: cfg.Testbed.JMFExtraCost})
	defer r.Stop()

	delay, jitter, measured := newFig3Instruments(cfg)
	done := make(chan struct{})
	var wg sync.WaitGroup

	for i := range cfg.Receivers {
		isMeasured := i < cfg.Measured
		profile := cfg.Testbed.receiverProfile(isMeasured)
		near, far := transport.Pipe(fmt.Sprintf("recv-%d", i), "reflector")
		shaped := transport.Shape(near, profile)
		if err := r.AddReceiver(shaped); err != nil {
			close(done)
			return nil, err
		}
		wg.Add(1)
		if isMeasured {
			recv := measured[i]
			go func() {
				defer wg.Done()
				drainConn(far, recv.HandleEvent)
			}()
		} else {
			go func() {
				defer wg.Done()
				drainConn(far, nil)
			}()
		}
	}

	srcNear, srcFar := transport.Pipe("reflector", "sender")
	r.ServeSourceAsync(srcNear)
	pub := reflector.NewConnPublisher(srcFar, "sender")

	start := time.Now()
	src := media.NewVideoSource(cfg.Video)
	if _, err := media.NewSender(pub, fig3Topic).SendVideo(src, cfg.Packets, done); err != nil {
		close(done)
		return nil, err
	}
	waitForReceivers(measured, cfg.Packets, fig3Deadline(cfg))
	elapsed := time.Since(start)
	srcFar.Close()
	close(done)
	r.Stop()
	wg.Wait()
	return assembleFig3Result(cfg, delay, jitter, measured, elapsed), nil
}
