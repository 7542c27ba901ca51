package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/globalmmcs/globalmmcs"
	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/metrics"
	"github.com/globalmmcs/globalmmcs/internal/topic"
	"github.com/globalmmcs/globalmmcs/internal/topiclog"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// The ladder drives each layer's exported functions in isolation, from
// outside, with the payload size, fan-out and burst length of the
// workload being traced. Every rung reports wall nanoseconds per call
// on an otherwise idle process, which is what the attribution table
// multiplies by calls per delivery.

// ladder carries one pass's parameters and collects its results.
type ladder struct {
	sp     *spec
	fanout int     // deliveries per publish on the workload
	burst  int     // events per publisher flush on the workload
	scale  float64 // iteration multiplier (tests run a fraction)
	dir    string
	ev     *event.Event // a representative event of the workload
	out    metricSet
}

// sinks defeat dead-code elimination of the timed calls.
var (
	sinkBytes []byte
	sinkEvent *event.Event
	sinkFrame *event.Frame
	sinkInts  []int
)

func (l *ladder) n(base int) int {
	if n := int(float64(base) * l.scale); n > 16 {
		return n
	}
	return 16
}

// timeOps runs f n times; it returns wall ns and heap allocations per
// call.
func timeOps(n int, f func(i int)) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	began := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	took := time.Since(began)
	runtime.ReadMemStats(&m1)
	return float64(took) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func runLadder(sp *spec, fanout int, dir string, scale float64) (metricSet, error) {
	l := &ladder{sp: sp, fanout: fanout, scale: scale, dir: dir, out: metricSet{}}
	l.burst = sp.burst()
	if sp.rate > 0 {
		// The open-loop workload's deliveries are mostly replayed
		// history, which the broker sends in ~64 KiB envelopes.
		l.burst = max(1, (64<<10)/(sp.payload+67))
	}
	t := sp.topics[0]
	if sp.name == "sdk-inproc" {
		t = "/xgsp/session/bench/video"
	}
	l.ev = event.New(t, event.KindRTP, newFiller(1, 0, sp.payload))
	l.ev.Source, l.ev.ID = "ladder", 1
	for _, rung := range []func() error{l.eventRungs, l.topicRung, l.transportRungs, l.brokerRung,
		l.clientRungs, l.sdkRungs, l.topiclogRungs, l.metricsRungs, l.harnessRungs} {
		if err := rung(); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}
	return l.out, nil
}

func (l *ladder) eventRungs() error {
	buf := make([]byte, 0, 2*l.sp.payload+256)
	ns, _ := timeOps(l.n(200_000), func(int) { buf = event.AppendMarshal(buf[:0], l.ev) })
	sinkBytes = buf
	l.out.set("event.marshal_ns", ns, "ns")

	wire := event.Marshal(l.ev)
	var in event.Interner
	var failed error
	ns, allocs := timeOps(l.n(200_000), func(int) {
		e, err := event.UnmarshalIntern(wire, &in)
		if err != nil {
			failed = err
		}
		sinkEvent = e
	})
	if failed != nil {
		return failed
	}
	l.out.set("event.unmarshal_ns", ns, "ns")
	l.out.set("event.unmarshal_allocs", allocs, "count")

	frame := event.NewFrameWithRSeqSlot(l.ev)
	ns, _ = timeOps(l.n(200_000), func(i int) { sinkFrame = frame.WithRSeq(uint64(i + 1)) })
	l.out.set("event.rseq_patch_ns", ns, "ns")
	return nil
}

func (l *ladder) topicRung() error {
	tr := topic.NewShardedTrie[int](16)
	topics := roomTopics()
	for k, t := range topics {
		if err := tr.Add(t, k); err != nil {
			return err
		}
	}
	for k, p := range []string{"/bench/room/*/audio", "/bench/#", "/bench/lecture/video", "/bench/rec/#"} {
		if err := tr.Add(p, 100+k); err != nil {
			return err
		}
	}
	dst := make([]int, 0, 8)
	ns, _ := timeOps(l.n(500_000), func(i int) { dst = tr.Match(topics[i%len(topics)], dst[:0]) })
	sinkInts = dst
	l.out.set("topic.match_ns", ns, "ns")
	return nil
}

// transportRungs times a loopback tcp pair: the sender batches a burst
// with Batcher.AddEventInPlace and flushes, then the receiver — whose
// bytes have already arrived — drains it with BurstConn.RecvBurst.
func (l *ladder) transportRungs() error {
	ln, err := transport.Listen("tcp://127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	type accepted struct {
		c   transport.Conn
		err error
	}
	acc := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		acc <- accepted{c, err}
	}()
	cli, err := transport.Dial(ln.Addr())
	if err != nil {
		return err
	}
	defer cli.Close()
	a := <-acc
	if a.err != nil {
		return a.err
	}
	defer a.c.Close()
	fc, okF := cli.(transport.FrameConn)
	bc, okB := a.c.(transport.BurstConn)
	if !okF || !okB {
		return fmt.Errorf("tcp conns lack FrameConn/BurstConn")
	}
	bw := transport.NewBatcher(fc, 0)
	rounds := l.n(20_000) / l.burst
	if rounds < 4 {
		rounds = 4
	}
	var sendNs, recvNs time.Duration
	var calls, events int
	dst := make([]*event.Event, 0, recvBatchSize)
	for r := 0; r < rounds; r++ {
		began := time.Now()
		for i := 0; i < l.burst; i++ {
			if err := bw.AddEventInPlace(l.ev); err != nil {
				return err
			}
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		sendNs += time.Since(began)
		began = time.Now()
		for got := 0; got < l.burst; {
			if dst, err = bc.RecvBurst(dst[:0], recvBatchSize); err != nil {
				return err
			}
			got += len(dst)
			calls++
		}
		recvNs += time.Since(began)
		events += l.burst
	}
	l.out.set("transport.send_ns", float64(sendNs)/float64(events), "ns")
	l.out.set("transport.recv_ns", float64(recvNs)/float64(events), "ns")
	l.out.set("transport.events_per_burst", float64(events)/float64(calls), "count")
	return nil
}

// drain counts everything a subscription delivers until it closes.
func drain(sub *broker.Subscription, got *atomic.Int64, wg *sync.WaitGroup) {
	defer wg.Done()
	buf := make([]*event.Event, 0, recvBatchSize)
	for {
		var ok bool
		buf, ok = sub.RecvBatch(buf[:0], recvBatchSize)
		got.Add(int64(len(buf)))
		clear(buf)
		if !ok {
			return
		}
	}
}

func waitFor(what string, cond func() bool) error {
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// chunkEvents makes n publishable copies of the ladder's event.
func (l *ladder) chunkEvents(n int, nextID *uint64) []*event.Event {
	evs := make([]*event.Event, n)
	for i := range evs {
		e := *l.ev
		*nextID++
		e.ID = *nextID
		evs[i] = &e
	}
	return evs
}

// brokerRung times Broker.Publish (route sweep and enqueue) into
// fanout in-process sessions, per target; delivery itself runs on the
// writer pools and is waited for outside the timed region.
func (l *ladder) brokerRung() error {
	b := broker.New(broker.Config{ID: "ladder-broker"})
	defer b.Stop()
	var got atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < l.fanout; i++ {
		c, err := b.LocalClient(fmt.Sprintf("ladder-%d", i), transport.LinkProfile{})
		if err != nil {
			return err
		}
		defer c.Close()
		sub, err := c.Subscribe(l.ev.Topic, lectureDepth)
		if err != nil {
			return err
		}
		wg.Add(1)
		go drain(sub, &got, &wg)
	}
	const chunk = 256 // under the 512-deep session lane: nothing is shed
	var id uint64
	var pubNs time.Duration
	var sent int64
	for r := l.n(20_000) / chunk; r >= 0; r-- {
		evs := l.chunkEvents(chunk, &id)
		began := time.Now()
		for _, e := range evs {
			if err := b.Publish(e); err != nil {
				return err
			}
		}
		pubNs += time.Since(began)
		sent += chunk
		want := sent * int64(l.fanout)
		if err := waitFor("ladder deliveries", func() bool { return got.Load() >= want }); err != nil {
			return err
		}
	}
	l.out.set("broker.publish_ns", float64(pubNs)/float64(sent*int64(l.fanout)), "ns")
	return nil
}

// clientRungs times the broker client over loopback tcp: the batching
// Publisher's Publish, and RecvBatch on a ring that already holds the
// events.
func (l *ladder) clientRungs() error {
	t, err := newTCPRig(broker.Config{})
	if err != nil {
		return err
	}
	defer t.close()
	pc, err := t.dial("ladder-pub")
	if err != nil {
		return err
	}
	pub := pc.Publisher(broker.PublisherConfig{Batching: true})
	var failed error
	idle := "/bench/ladder/nobody-listens"
	ns, _ := timeOps(l.n(50_000), func(int) {
		if err := pub.Publish(event.New(idle, event.KindRTP, l.ev.Payload)); err != nil {
			failed = err
		}
	})
	if failed == nil {
		failed = pub.Close()
	}
	if failed != nil {
		return failed
	}
	l.out.set("client.publish_ns", ns, "ns")

	sc, err := t.dial("ladder-sub")
	if err != nil {
		return err
	}
	sub, err := sc.Subscribe(l.ev.Topic, lectureDepth)
	if err != nil {
		return err
	}
	const fill = 2048 // half the ring
	var id uint64
	var recvNs time.Duration
	var events int
	buf := make([]*event.Event, 0, recvBatchSize)
	for round := 0; round < 2; round++ {
		for sent := 0; sent < fill; sent += 256 {
			for _, e := range l.chunkEvents(256, &id) {
				if err := t.b.Publish(e); err != nil {
					return err
				}
			}
			want := uint64(events + sent + 256)
			if err := waitFor("ring fill", func() bool { return sub.DeliveryStats().Events >= want }); err != nil {
				return err
			}
		}
		began := time.Now()
		for got := 0; got < fill; {
			buf, _ = sub.RecvBatch(buf[:0], recvBatchSize)
			got += len(buf)
		}
		recvNs += time.Since(began)
		events += fill
	}
	l.out.set("client.recv_ns", float64(recvNs)/float64(events), "ns")
	return nil
}

// sdkRungs times the public facade the workload uses: Publisher.Publish
// and Stream.Recv on an in-process session for sdk-inproc,
// BrokerClient.Publish and BrokerSubscription.Recv over loopback tcp
// otherwise. Receives are timed on a buffer that already holds the
// events, so the number is the busy cost, not the wait.
func (l *ladder) sdkRungs() error {
	if l.sp.name == "sdk-inproc" {
		return l.sdkInprocRungs()
	}
	ctx := context.Background()
	t, err := newTCPRig(broker.Config{})
	if err != nil {
		return err
	}
	defer t.close()
	pc, err := globalmmcs.DialBroker("ladder-pub", []string{t.addr})
	if err != nil {
		return err
	}
	t.clients = append(t.clients, pc)
	var failed error
	ns, _ := timeOps(l.n(10_000), func(int) {
		if err := pc.Publish("/bench/ladder/nobody-listens", l.ev.Payload); err != nil {
			failed = err
		}
	})
	if failed != nil {
		return failed
	}
	l.out.set("sdk.publish_ns", ns, "ns")

	sc, err := globalmmcs.DialBroker("ladder-sub", []string{t.addr})
	if err != nil {
		return err
	}
	t.clients = append(t.clients, sc)
	sub, err := sc.Subscribe(ctx, l.ev.Topic, lectureDepth)
	if err != nil {
		return err
	}
	var id uint64
	// The first Recv starts the subscription's channel pump.
	if err := t.b.Publish(l.chunkEvents(1, &id)[0]); err != nil {
		return err
	}
	if _, err := sub.Recv(ctx); err != nil {
		return err
	}
	const fill = 2048
	var recvNs time.Duration
	var events int
	egress := t.reg.Counter("broker.events_out")
	for round := 0; round < 2; round++ {
		for sent := 0; sent < fill; sent += 256 {
			for _, e := range l.chunkEvents(256, &id) {
				if err := t.b.Publish(e); err != nil {
					return err
				}
			}
			want := uint64(1 + events + sent + 256)
			if err := waitFor("broker egress", func() bool { return egress.Value() >= want }); err != nil {
				return err
			}
		}
		time.Sleep(5 * time.Millisecond) // let the client's pump move the ring into the channel
		began := time.Now()
		for i := 0; i < fill; i++ {
			if _, err := sub.Recv(ctx); err != nil {
				return err
			}
		}
		recvNs += time.Since(began)
		events += fill
	}
	l.out.set("sdk.recv_busy_ns", float64(recvNs)/float64(events), "ns")
	return nil
}

func (l *ladder) sdkInprocRungs() error {
	ctx := context.Background()
	srv, err := globalmmcs.Start(ctx, globalmmcs.WithoutSIP(), globalmmcs.WithoutH323(), globalmmcs.WithoutRTSP(), globalmmcs.WithoutIM())
	if err != nil {
		return err
	}
	defer srv.Stop()
	host, err := srv.Client(ctx, "ladder-pub")
	if err != nil {
		return err
	}
	defer host.Close()
	sess, err := host.CreateSession(ctx, "ladder")
	if err != nil {
		return err
	}
	pub, err := sess.Publisher(globalmmcs.Video)
	if err != nil {
		return err
	}
	var failed error
	ns, _ := timeOps(l.n(50_000), func(int) {
		if err := pub.Publish(l.ev.Payload); err != nil {
			failed = err
		}
	})
	if failed != nil {
		return failed
	}
	l.out.set("sdk.publish_ns", ns, "ns")

	guest, err := srv.Client(ctx, "ladder-sub")
	if err != nil {
		return err
	}
	defer guest.Close()
	js, err := guest.Join(ctx, sess.ID(), "terminal")
	if err != nil {
		return err
	}
	const fill = 1000
	st, err := js.Subscribe(ctx, globalmmcs.Video, globalmmcs.WithBuffer(1024), globalmmcs.WithDropPolicy(globalmmcs.Block))
	if err != nil {
		return err
	}
	defer st.Close()
	var recvNs time.Duration
	var events int
	for round := 0; round < 4; round++ {
		for i := 0; i < fill; i++ {
			if err := pub.Publish(l.ev.Payload); err != nil {
				return err
			}
			if i%256 == 255 { // stay under the session lane's depth
				want := i + 1
				if err := waitFor("stream fill", func() bool { return len(st.Chan()) >= want }); err != nil {
					return err
				}
			}
		}
		if err := waitFor("stream fill", func() bool { return len(st.Chan()) >= fill }); err != nil {
			return err
		}
		began := time.Now()
		for i := 0; i < fill; i++ {
			if _, err := st.Recv(ctx); err != nil {
				return err
			}
		}
		recvNs += time.Since(began)
		events += fill
	}
	l.out.set("sdk.recv_busy_ns", float64(recvNs)/float64(events), "ns")
	return nil
}

// topiclogRungs times Log.Append in bursts of 256 records, Cursor.Next
// over what was appended, and Append again while two cursors read.
func (l *ladder) topiclogRungs() error {
	dir, err := os.MkdirTemp(l.dir, "ladder-log-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := topiclog.Open(dir, topiclog.Config{})
	if err != nil {
		return err
	}
	defer log.Close()
	wire := event.Marshal(l.ev)
	batch := make([][]byte, 256)
	for i := range batch {
		batch[i] = wire
	}
	rounds := l.n(40)
	appendRounds := func() (float64, error) {
		began := time.Now()
		for r := 0; r < rounds; r++ {
			if _, err := log.Append(batch); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(began)) / float64(rounds*len(batch)), nil
	}
	ns, err := appendRounds()
	if err != nil {
		return err
	}
	l.out.set("topiclog.append_ns", ns, "ns")
	st := log.Stats()
	l.out.set("topiclog.bytes_per_record", float64(st.Bytes)/float64(st.Appended), "B")

	readAll := func() (int, error) {
		cur := log.NewCursor(0)
		defer cur.Close()
		recs := make([]topiclog.Record, 0, 256)
		total := 0
		for {
			recs, err := cur.Next(recs[:0], 256)
			if err != nil || len(recs) == 0 {
				return total, err
			}
			total += len(recs)
		}
	}
	began := time.Now()
	total, err := readAll()
	if err != nil {
		return err
	}
	l.out.set("topiclog.next_ns", float64(time.Since(began))/float64(total), "ns")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := readAll(); err != nil {
					return
				}
			}
		}()
	}
	ns, err = appendRounds()
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}
	l.out.set("topiclog.append_ns_contended", ns, "ns")
	return nil
}

func (l *ladder) metricsRungs() error {
	h := metrics.NewLatencyHistogram()
	ns, _ := timeOps(l.n(500_000), func(i int) { h.Observe(float64(i%4096) * 1e-6) })
	l.out.set("metrics.observe_ns", ns, "ns")
	reg := &metrics.Registry{}
	for i := 0; i < 64; i++ {
		reg.Counter(fmt.Sprintf("broker.session.s%d.queue_drops", i))
	}
	var c *metrics.Counter
	ns, _ = timeOps(l.n(500_000), func(int) { c = reg.Counter("broker.events_routed") })
	c.Inc()
	l.out.set("metrics.counter_lookup_ns", ns, "ns")
	return nil
}

// harnessRungs times the benchmark's own per-event work, so the
// attribution table can set it apart from the program's.
func (l *ladder) harnessRungs() error {
	filler := newFiller(1, 0, l.sp.payload)
	buf := make([]byte, l.sp.payload)
	ns, _ := timeOps(l.n(200_000), func(i int) {
		fillPayload(buf, filler, stamp{seq: uint64(i + 1), due: int64(i)})
	})
	l.out.set("harness.stamp_ns", ns, "ns")
	chk := newChecker(0, 1)
	rec := newRecorder(1, 1, true)
	ns, _ = timeOps(l.n(200_000), func(i int) {
		st, ok := parsePayload(buf)
		st.seq = uint64(i + 1)
		if _, good := chk.check(st); ok && good {
			rec.record(0, int64(i)+5000, st)
		}
	})
	l.out.set("harness.check_ns", ns, "ns")
	return nil
}
