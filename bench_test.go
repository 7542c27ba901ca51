// Benchmarks regenerating the paper's evaluation (scaled so the full
// suite runs in minutes; cmd/gmmcs-bench performs the paper-scale runs
// recorded in EXPERIMENTS.md):
//
//   - BenchmarkFigure3/* — Figure 3 delay+jitter, broker vs JMF reflector
//   - BenchmarkAudioCapacity/* — §3.2 ">1000 audio clients" claim
//   - BenchmarkVideoCapacity/* — §3.2 ">400 video clients" claim
//   - BenchmarkBrokerChainDepth/* — ablation: distributed-routing cost
//   - BenchmarkRoutingMode/* — ablation: client-server vs peer-to-peer
//   - BenchmarkReflectorReprocess/* — ablation: JMF re-packetization cost
//   - BenchmarkFanout* / BenchmarkTransport* — microbenchmarks
package globalmmcs_test

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/bench"
	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/media"
	"github.com/globalmmcs/globalmmcs/internal/reflector"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// fig3Scaled is the scaled-down Figure 3 configuration used in-suite.
func fig3Scaled(system bench.System) bench.Fig3Config {
	return bench.Fig3Config{
		System:    system,
		Receivers: 64,
		Measured:  6,
		Packets:   150,
		Testbed: bench.Testbed{
			PerSendCost:  150 * time.Microsecond, // 64 × 150µs ≈ 9.6ms ≈ saturation
			JMFExtraCost: 20 * time.Microsecond,
		},
	}
}

// BenchmarkFigure3 regenerates the Figure 3 comparison at reduced scale.
func BenchmarkFigure3(b *testing.B) {
	for _, system := range []bench.System{bench.SystemBroker, bench.SystemReflector} {
		b.Run(system.String(), func(b *testing.B) {
			for b.Loop() {
				res, err := bench.RunFig3(fig3Scaled(system))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.MeanDelayMs, "ms-delay")
				b.ReportMetric(res.MeanJitterMs, "ms-jitter")
				b.ReportMetric(float64(res.Lost), "lost")
			}
		})
	}
}

// BenchmarkAudioCapacity sweeps audio receiver counts on one broker.
func BenchmarkAudioCapacity(b *testing.B) {
	for _, clients := range []int{100, 250, 500} {
		b.Run(strconv.Itoa(clients)+"clients", func(b *testing.B) {
			for b.Loop() {
				res, err := bench.RunCapacity(bench.CapacityConfig{
					Kind:    bench.MediaAudio,
					Clients: clients,
					Packets: 100, // 2s of audio per iteration
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.MeanDelayMs, "ms-delay")
				b.ReportMetric(res.LossRate*100, "loss%")
				reportQuality(b, res)
			}
		})
	}
}

// BenchmarkVideoCapacity sweeps video receiver counts on one broker.
func BenchmarkVideoCapacity(b *testing.B) {
	for _, clients := range []int{50, 100, 200} {
		b.Run(strconv.Itoa(clients)+"clients", func(b *testing.B) {
			for b.Loop() {
				res, err := bench.RunCapacity(bench.CapacityConfig{
					Kind:    bench.MediaVideo,
					Clients: clients,
					Packets: 170, // ~2s of video
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.MeanDelayMs, "ms-delay")
				b.ReportMetric(res.LossRate*100, "loss%")
				reportQuality(b, res)
			}
		})
	}
}

func reportQuality(b *testing.B, res *bench.CapacityResult) {
	b.Helper()
	quality := 1.0
	if !res.GoodQuality {
		quality = 0
	}
	b.ReportMetric(quality, "good-quality")
}

// BenchmarkBrokerChainDepth measures added latency per broker hop — the
// cost of the distributed (multi-broker) deployment of Figure 1.
func BenchmarkBrokerChainDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("%dbrokers", depth), func(b *testing.B) {
			brokers := make([]*broker.Broker, depth)
			for i := range brokers {
				brokers[i] = broker.New(broker.Config{ID: fmt.Sprintf("chain-%d", i)})
				defer brokers[i].Stop()
			}
			for i := 1; i < depth; i++ {
				a, peer := transport.Pipe("x", "y")
				go brokers[i].AcceptConn(peer)
				if err := brokers[i-1].ConnectPeerConn(a); err != nil {
					b.Fatal(err)
				}
			}
			pub, err := brokers[0].LocalClient("pub", transport.LinkProfile{})
			if err != nil {
				b.Fatal(err)
			}
			defer pub.Close()
			subC, err := brokers[depth-1].LocalClient("sub", transport.LinkProfile{})
			if err != nil {
				b.Fatal(err)
			}
			defer subC.Close()
			sub, err := subC.Subscribe("/chain/bench", 4096)
			if err != nil {
				b.Fatal(err)
			}
			// Wait for the advertisement to reach the chain head.
			waitRoutable(b, pub, sub)

			payload := make([]byte, 1200)
			b.ResetTimer()
			for b.Loop() {
				if err := pub.Publish("/chain/bench", event.KindRTP, payload); err != nil {
					b.Fatal(err)
				}
				if _, ok := <-sub.C(); !ok {
					b.Fatal("subscription closed")
				}
			}
		})
	}
}

// waitRoutable publishes probes until one arrives, draining the probe.
func waitRoutable(b *testing.B, pub *broker.Client, sub *broker.Subscription) {
	b.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := pub.Publish(sub.Pattern(), event.KindData, nil); err != nil {
			b.Fatal(err)
		}
		select {
		case <-sub.C():
			// Drain any additional buffered probes.
			for {
				select {
				case <-sub.C():
				default:
					return
				}
			}
		case <-time.After(50 * time.Millisecond):
		}
	}
	b.Fatal("route never established")
}

// BenchmarkRoutingMode compares client-server routing with P2P flooding
// across a 3-broker chain.
func BenchmarkRoutingMode(b *testing.B) {
	for _, mode := range []broker.Mode{broker.ModeClientServer, broker.ModePeerToPeer} {
		b.Run(mode.String(), func(b *testing.B) {
			brokers := make([]*broker.Broker, 3)
			for i := range brokers {
				brokers[i] = broker.New(broker.Config{ID: fmt.Sprintf("m-%d", i), Mode: mode})
				defer brokers[i].Stop()
			}
			for i := 1; i < len(brokers); i++ {
				a, peer := transport.Pipe("x", "y")
				go brokers[i].AcceptConn(peer)
				if err := brokers[i-1].ConnectPeerConn(a); err != nil {
					b.Fatal(err)
				}
			}
			pub, err := brokers[0].LocalClient("pub", transport.LinkProfile{})
			if err != nil {
				b.Fatal(err)
			}
			defer pub.Close()
			subC, err := brokers[2].LocalClient("sub", transport.LinkProfile{})
			if err != nil {
				b.Fatal(err)
			}
			defer subC.Close()
			sub, err := subC.Subscribe("/mode/bench", 4096)
			if err != nil {
				b.Fatal(err)
			}
			waitRoutable(b, pub, sub)
			payload := make([]byte, 1200)
			b.ResetTimer()
			for b.Loop() {
				if err := pub.Publish("/mode/bench", event.KindRTP, payload); err != nil {
					b.Fatal(err)
				}
				if _, ok := <-sub.C(); !ok {
					b.Fatal("subscription closed")
				}
			}
		})
	}
}

// BenchmarkReflectorReprocess isolates the cost of JMF's per-receiver
// re-packetization (ablation on the baseline's design).
func BenchmarkReflectorReprocess(b *testing.B) {
	for _, reprocess := range []bool{true, false} {
		b.Run(fmt.Sprintf("reprocess=%t", reprocess), func(b *testing.B) {
			r := reflector.NewWithConfig(reflector.Config{ReprocessRTP: reprocess})
			defer r.Stop()
			const receivers = 64
			for i := range receivers {
				near, far := transport.Pipe(fmt.Sprintf("r%d", i), "reflector")
				if err := r.AddReceiver(near); err != nil {
					b.Fatal(err)
				}
				go drainConnB(far)
			}
			srcNear, srcFar := transport.Pipe("reflector", "src")
			r.ServeSourceAsync(srcNear)
			pub := reflector.NewConnPublisher(srcFar, "src")
			v := media.NewVideoSource(media.VideoConfig{})
			frame := v.NextFrame()
			raw, err := frame[0].Marshal()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for b.Loop() {
				e := event.New("/m/v", event.KindRTP, raw)
				if err := pub.PublishEvent(e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func drainConnB(c transport.Conn) {
	for {
		if _, err := c.Recv(); err != nil {
			return
		}
	}
}

// BenchmarkFanout measures single-broker fan-out cost per delivered
// event at different subscriber counts.
func BenchmarkFanout(b *testing.B) {
	for _, subs := range []int{10, 100, 400} {
		b.Run(strconv.Itoa(subs)+"subs", func(b *testing.B) {
			br := broker.New(broker.Config{ID: "fan", QueueDepth: 65536})
			defer br.Stop()
			for i := range subs {
				c, err := br.LocalClient(fmt.Sprintf("s%d", i), transport.LinkProfile{})
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				sub, err := c.Subscribe("/fan/bench", 65536)
				if err != nil {
					b.Fatal(err)
				}
				go func() {
					for range sub.C() {
					}
				}()
			}
			pub, err := br.LocalClient("pub", transport.LinkProfile{})
			if err != nil {
				b.Fatal(err)
			}
			defer pub.Close()
			payload := make([]byte, 1200)
			b.ResetTimer()
			for b.Loop() {
				if err := pub.Publish("/fan/bench", event.KindRTP, payload); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(subs), "fanout")
		})
	}
}

// BenchmarkTransportThroughput compares event throughput across the
// three transports.
func BenchmarkTransportThroughput(b *testing.B) {
	run := func(b *testing.B, pubConn, subConn transport.Conn) {
		b.Helper()
		go drainConnB(subConn)
		e := event.New("/t/bench", event.KindRTP, make([]byte, 1200))
		e.Source, e.ID = "bench", 1
		b.ResetTimer()
		for b.Loop() {
			if err := pubConn.Send(e); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("mem", func(b *testing.B) {
		a, z := transport.Pipe("a", "z")
		defer a.Close()
		run(b, a, z)
	})
	b.Run("tcp", func(b *testing.B) {
		l, err := transport.Listen("tcp://127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		accepted := make(chan transport.Conn, 1)
		go func() {
			c, err := l.Accept()
			if err == nil {
				accepted <- c
			}
		}()
		client, err := transport.Dial(l.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		server := <-accepted
		run(b, client, server)
	})
	b.Run("udp", func(b *testing.B) {
		l, err := transport.Listen("udp://127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		client, err := transport.Dial(l.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		// Prime the server conn.
		e := event.New("/t/bench", event.KindData, nil)
		e.Source, e.ID = "bench", 1
		if err := client.Send(e); err != nil {
			b.Fatal(err)
		}
		server, err := l.Accept()
		if err != nil {
			b.Fatal(err)
		}
		run(b, client, server)
	})
}

// BenchmarkRouteCache publishes one topic through a realistic
// subscription table, the case the broker's per-topic match memoisation
// serves — one of the "optimizations on the message transmission" the
// paper credits for NaradaBrokering's media performance.
func BenchmarkRouteCache(b *testing.B) {
	br := broker.New(broker.Config{ID: "rc", QueueDepth: 65536})
	defer br.Stop()
	// A realistic subscription table: many sessions, some wildcards.
	for i := range 200 {
		c, err := br.LocalClient(fmt.Sprintf("c%d", i), transport.LinkProfile{})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		pattern := fmt.Sprintf("/xgsp/session/s%d/video", i)
		if i%10 == 0 {
			pattern = "/xgsp/session/*/video"
		}
		sub, err := c.Subscribe(pattern, 65536)
		if err != nil {
			b.Fatal(err)
		}
		go func() {
			for range sub.C() {
			}
		}()
	}
	pub, err := br.LocalClient("pub", transport.LinkProfile{})
	if err != nil {
		b.Fatal(err)
	}
	defer pub.Close()
	payload := make([]byte, 1200)
	b.ResetTimer()
	for b.Loop() {
		if err := pub.Publish("/xgsp/session/s100/video", event.KindRTP, payload); err != nil {
			b.Fatal(err)
		}
	}
}
