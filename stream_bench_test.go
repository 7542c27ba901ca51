// The SDK rung of the measurement ladder: what one event costs from
// Publisher.Publish to Stream[*MediaPacket].Recv, in-process and over
// loopback TCP, and a gate that Recv itself allocates nothing beyond
// what its decode does.
package globalmmcs_test

import (
	"context"
	"testing"

	"github.com/globalmmcs/globalmmcs"
)

// mediaPipe opens one video publisher (reliable or not) and one video
// stream on a fresh node, through an in-process client or, with
// overTCP, a client dialed to the node's loopback TCP listener.
func mediaPipe(tb testing.TB, overTCP, reliable bool, opts ...globalmmcs.StreamOption) (*globalmmcs.Publisher, *globalmmcs.MediaSubscription) {
	tb.Helper()
	ctx := context.Background()
	nodeOpts := []globalmmcs.Option{globalmmcs.WithoutSIP(), globalmmcs.WithoutH323(),
		globalmmcs.WithoutRTSP(), globalmmcs.WithoutIM()}
	if overTCP {
		nodeOpts = append(nodeOpts, globalmmcs.WithBrokerListen("tcp://127.0.0.1:0"))
	}
	srv, err := globalmmcs.Start(ctx, nodeOpts...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Stop)
	var c *globalmmcs.Client
	if overTCP {
		c, err = globalmmcs.Dial(ctx, "bench", srv.Broker().Addrs())
	} else {
		c, err = srv.Client(ctx, "bench")
	}
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = c.Close() })
	session, err := c.CreateSession(ctx, "bench")
	if err != nil {
		tb.Fatal(err)
	}
	st, err := session.Subscribe(ctx, globalmmcs.Video, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = st.Close() })
	var pubOpts []globalmmcs.PublishOption
	if reliable {
		pubOpts = append(pubOpts, globalmmcs.WithReliable())
	}
	pub, err := session.Publisher(globalmmcs.Video, pubOpts...)
	if err != nil {
		tb.Fatal(err)
	}
	return pub, st
}

// BenchmarkStreamRecv: one op is one 1200-byte packet published
// in-process, routed, and received through Stream.Recv, in windows of
// 128 so the stream sees the bursts a loaded conference produces.
func BenchmarkStreamRecv(b *testing.B) { benchStreamRecv(b, false) }

// BenchmarkStreamRecvTCP is BenchmarkStreamRecv for a client dialed
// over loopback TCP: each packet crosses the wire to the broker and
// back.
func BenchmarkStreamRecvTCP(b *testing.B) { benchStreamRecv(b, true) }

func benchStreamRecv(b *testing.B, overTCP bool) {
	const window = 128
	pub, st := mediaPipe(b, overTCP, false, globalmmcs.WithBuffer(1024), globalmmcs.WithDropPolicy(globalmmcs.Block))
	payload := make([]byte, 1200)
	ctx := context.Background()
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%window == 0 {
			for j := 0; j < min(window, b.N-i); j++ {
				if err := pub.Publish(payload); err != nil {
					b.Fatal(err)
				}
			}
		}
		if _, err := st.Recv(ctx); err != nil {
			b.Fatal(err)
		}
	}
	if st.Drops() != 0 {
		b.Fatalf("dropped %d", st.Drops())
	}
}

// TestStreamRecvAllocs: receiving a buffered media packet allocates the
// MediaPacket its decode returns and nothing else — no channel hop, no
// per-call scratch.
func TestStreamRecvAllocs(t *testing.T) {
	const runs = 1000
	// AllocsPerRun calls Recv runs+1 times. One packet more than the
	// buffer holds is shed, which shows that every packet has arrived;
	// they are published reliable so that none is shed on the way.
	pub, st := mediaPipe(t, false, true, globalmmcs.WithBuffer(runs+1), globalmmcs.WithDropPolicy(globalmmcs.DropNewest))
	payload := make([]byte, 1200)
	for i := 0; i < runs+2; i++ {
		if err := pub.Publish(payload); err != nil {
			t.Fatal(err)
		}
	}
	waitDrops(t, st, 1)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := st.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Recv allocated %.0f per packet, want 1 (the MediaPacket)", allocs)
	}
}
