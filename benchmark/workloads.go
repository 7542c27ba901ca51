package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/globalmmcs/globalmmcs"
	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/metrics"
)

// The workload constants below are frozen: they are part of what the
// numbers mean. The lecture fan-out (16) is sized so sixteen client
// decodes fit the two cores this benchmark was calibrated on, and every
// closed-loop window stays under the broker's default 512-deep
// best-effort session lane so that no workload ever sheds an event.
const (
	lectureSubs   = 16
	lectureDepth  = 4096
	rooms         = 32
	roomConns     = 16
	roomsPerConn  = 8
	replayPrefill = 50_000
	replayLive    = 4
	replayJoiners = 2
	replayPattern = "/bench/rec/#"
	// handoffTail is how many live events a late joiner reads past the
	// replay-to-live hand-off before it rejoins, so every pass proves
	// the hand-off neither lost nor repeated an event.
	handoffTail = 100
	sdkSubs     = 32
)

var specs = []*spec{
	{
		name:    "lecture-paced",
		why:     "the paper's Figure 3 quantities, one packet at a time: delay and jitter are set by flush linger, wakeups, the C() compat pump and syscalls, not by queueing; throughput work should not move it",
		payload: 1200, topics: []string{"/bench/lecture/video"}, pubs: 2, window: 1, warmup: 1500,
		build: buildLecturePaced, layers: tcpLayers("sdk.publish_ns", true, false),
	},
	{
		name:    "lecture-flood",
		why:     "wide fan-out at saturation (1 ingest : 16 egress): send queue, writer pools, transport write and 16x client decode do most of the work, ingest and routing little",
		payload: 1200, topics: []string{"/bench/lecture/video"}, pubs: 2, window: 128, warmup: 10_000,
		build: buildLectureFlood, layers: tcpLayers("client.publish_ns", false, false),
	},
	{
		name:    "rooms-flood",
		why:     "smallest packet, narrow fan-out, many topics: per-event ingest cost (tcp burst decode, topic match, route cache, allocation) dominates, bytes and fan-out do little; mirror image of lecture-flood",
		payload: 172, topics: roomTopics(), pubs: 2, window: 256, warmup: 40_000,
		build: buildRoomsFlood, layers: tcpLayers("client.publish_ns", false, false),
	},
	{
		name:    "recorded-replay",
		why:     "the only workload on the reliable lane and topiclog, using the log both ways at once (staged Append beside Cursor.Next reads), so a gain for append that costs replay, or the reverse, shows",
		payload: 1200, topics: []string{"/bench/rec/lecture"}, pubs: 1, rate: 5_000, warmup: 1000,
		build: buildRecordedReplay, layers: tcpLayers("client.publish_ns", false, true),
	},
	{
		name:    "sdk-inproc",
		why:     "ROADMAP's headline path Publisher.Publish -> Stream[T].Recv: the mem transport moves pointers, so codec and transport do nothing; codec/transport optimisations must predict no change here",
		payload: 1200, topics: []string{"session video channel"}, pubs: 1, window: 128, warmup: 5_000,
		build: buildSDKInproc, layers: inprocLayers,
	},
}

func roomTopics() []string {
	t := make([]string, rooms)
	for k := range t {
		t[k] = fmt.Sprintf("/bench/room/%d/audio", k)
	}
	return t
}

func findSpec(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// parseReport turns a metrics.Registry text report into name -> value
// for its counters and gauges. It is the one way every rig reads the
// broker's counters, because the public facade exposes only the text.
func parseReport(report string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(report, "\n") {
		f := strings.Fields(line)
		if len(f) != 3 || (f[0] != "counter" && f[0] != "gauge") {
			continue
		}
		if v, err := strconv.ParseFloat(f[2], 64); err == nil {
			out[f[1]] = v
		}
	}
	return out
}

// brokerCounters maps a registry report onto the broker layer's
// counter names.
func brokerCounters(report string, into map[string]float64) {
	m := parseReport(report)
	for _, n := range []string{"events_routed", "queue_drops", "retransmits"} {
		into["broker."+n] = m["broker."+n]
	}
	var stalls float64
	for name, v := range m {
		if strings.HasSuffix(name, ".credit_stalls") {
			stalls += v
		}
	}
	into["broker.credit_stalls"] = stalls
}

// tcpRig is a default-config broker on a loopback TCP listener plus
// the clients dialed to it.
type tcpRig struct {
	b       *broker.Broker
	reg     *metrics.Registry
	addr    string
	clients []interface{ Close() error }
	subs    []*broker.Subscription
}

func newTCPRig(cfg broker.Config) (*tcpRig, error) {
	t := &tcpRig{reg: &metrics.Registry{}}
	cfg.ID = "bench-broker"
	cfg.Metrics = t.reg
	t.b = broker.New(cfg)
	l, err := t.b.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.b.Stop()
		return nil, err
	}
	t.addr = l.Addr()
	return t, nil
}

func (t *tcpRig) dial(id string) (*broker.Client, error) {
	c, err := broker.Dial(t.addr, id)
	if err != nil {
		return nil, err
	}
	t.clients = append(t.clients, c)
	return c, nil
}

func (t *tcpRig) close() {
	for _, c := range t.clients {
		_ = c.Close() // tearing down: a conn the broker closed first is fine
	}
	t.b.Stop()
}

func (t *tcpRig) counters() map[string]float64 {
	out := make(map[string]float64)
	brokerCounters(t.reg.Report(), out)
	for _, p := range t.b.WriterPoolStats() {
		out["pool.services"] += float64(p.Services)
		out["pool.drained"] += float64(p.Drained)
	}
	for _, s := range t.subs {
		d := s.DeliveryStats()
		out["client.events"] += float64(d.Events)
		out["client.wakeups"] += float64(d.Wakeups)
		out["client.drops"] += float64(s.Drops())
		if o := float64(d.MaxOccupancy); o > out["client.ring_occupancy_max"] {
			out["client.ring_occupancy_max"] = o
		}
	}
	return out
}

// batchPublisher publishes through broker.Client.Publisher with
// client-side batching on.
func batchPublisher(c *broker.Client, topics []string, reliable bool) publisher {
	pub := c.Publisher(broker.PublisherConfig{Batching: true})
	return publisher{
		publish: func(topic int, payload []byte) error {
			e := event.New(topics[topic], event.KindRTP, payload)
			e.Reliable = reliable
			return pub.Publish(e)
		},
		flush: pub.Flush,
	}
}

// batchSubscriber drains sub with Subscription.RecvBatch.
func batchSubscriber(sub *broker.Subscription, topic int) *subscriber {
	return &subscriber{topic: topic, delayed: true, run: func(s *sink) {
		buf := make([]*event.Event, 0, recvBatchSize)
		for {
			entered := s.enter()
			var ok bool
			buf, ok = sub.RecvBatch(buf[:0], recvBatchSize)
			now := nowNs()
			for _, e := range buf {
				s.deliver(entered, now, e.Payload)
			}
			clear(buf)
			if !ok {
				return
			}
		}
	}}
}

// closeOnError tears a half-built rig down when its builder fails.
func closeOnError(err *error, closeAll func()) {
	if *err != nil {
		closeAll()
	}
}

func buildLecturePaced(ctx context.Context, e *engine) (r *rig, err error) {
	t, err := newTCPRig(broker.Config{})
	if err != nil {
		return nil, err
	}
	defer closeOnError(&err, t.close)
	r = &rig{fanout: []int{lectureSubs}, close: t.close}
	topic := e.spec.topics[0]
	var facade []*globalmmcs.BrokerSubscription
	for i := 0; i < lectureSubs; i++ {
		c, err := globalmmcs.DialBroker(fmt.Sprintf("sub-%d", i), []string{t.addr})
		if err != nil {
			return nil, err
		}
		t.clients = append(t.clients, c)
		sub, err := c.Subscribe(ctx, topic, lectureDepth)
		if err != nil {
			return nil, err
		}
		facade = append(facade, sub)
		r.subs = append(r.subs, &subscriber{delayed: true, run: func(s *sink) {
			for {
				entered := s.enter()
				ev, err := sub.Recv(context.Background())
				if err != nil {
					return
				}
				s.deliver(entered, nowNs(), ev.Payload)
			}
		}})
	}
	for p := 0; p < e.spec.pubs; p++ {
		c, err := globalmmcs.DialBroker(fmt.Sprintf("pub-%d", p), []string{t.addr})
		if err != nil {
			return nil, err
		}
		t.clients = append(t.clients, c)
		r.pubs = append(r.pubs, publisher{publish: func(_ int, payload []byte) error {
			return c.Publish(topic, payload)
		}})
	}
	r.counters = func() map[string]float64 {
		out := t.counters()
		for _, s := range facade {
			out["client.drops"] += float64(s.Drops())
		}
		return out
	}
	return r, nil
}

func buildLectureFlood(ctx context.Context, e *engine) (r *rig, err error) {
	t, err := newTCPRig(broker.Config{})
	if err != nil {
		return nil, err
	}
	defer closeOnError(&err, t.close)
	r = &rig{fanout: []int{lectureSubs}, close: t.close, counters: t.counters}
	for i := 0; i < lectureSubs; i++ {
		c, err := t.dial(fmt.Sprintf("sub-%d", i))
		if err != nil {
			return nil, err
		}
		sub, err := c.SubscribeContext(ctx, e.spec.topics[0], lectureDepth)
		if err != nil {
			return nil, err
		}
		t.subs = append(t.subs, sub)
		r.subs = append(r.subs, batchSubscriber(sub, 0))
	}
	for p := 0; p < e.spec.pubs; p++ {
		c, err := t.dial(fmt.Sprintf("pub-%d", p))
		if err != nil {
			return nil, err
		}
		r.pubs = append(r.pubs, batchPublisher(c, e.spec.topics, false))
	}
	return r, nil
}

// roomMembership picks, from the run seed, which subscriber
// connections listen to each room: roomsPerConn rooms for every
// connection, the same number of distinct listeners in every room.
// Room k of a shuffled room order is heard by the connections at k plus
// each of `listeners` distinct offsets in a shuffled connection order.
func roomMembership(e *engine) [][]int {
	listeners := roomConns * roomsPerConn / rooms
	connOrder, roomOrder := e.rng.Perm(roomConns), e.rng.Perm(rooms)
	offsets := e.rng.Perm(roomConns)[:listeners]
	members := make([][]int, rooms)
	for k, room := range roomOrder {
		for _, off := range offsets {
			members[room] = append(members[room], connOrder[(k+off)%roomConns])
		}
	}
	return members
}

func buildRoomsFlood(ctx context.Context, e *engine) (r *rig, err error) {
	t, err := newTCPRig(broker.Config{})
	if err != nil {
		return nil, err
	}
	defer closeOnError(&err, t.close)
	members := roomMembership(e)
	r = &rig{fanout: make([]int, rooms), close: t.close, counters: t.counters}
	// The sixteen connections join at once, as sixteen clients would,
	// each subscribing to its rooms in room order; one connection after
	// another, the 128 subscribe round trips on an otherwise idle
	// process took anywhere from 30 ms to 1 s.
	conns := make([]*broker.Client, roomConns)
	for i := range conns {
		if conns[i], err = t.dial(fmt.Sprintf("sub-%d", i)); err != nil {
			return nil, err
		}
	}
	subs := make([][]*broker.Subscription, rooms) // [room][listener]
	for room, list := range members {
		r.fanout[room] = len(list)
		subs[room] = make([]*broker.Subscription, len(list))
	}
	errs := make(chan error, roomConns)
	for c := range conns {
		go func() {
			for room, list := range members {
				for k, member := range list {
					if member != c {
						continue
					}
					sub, err := conns[c].SubscribeContext(ctx, e.spec.topics[room], 1024)
					if err != nil {
						errs <- err
						return
					}
					subs[room][k] = sub
				}
			}
			errs <- nil
		}()
	}
	for range conns {
		if e := <-errs; e != nil {
			err = e
		}
	}
	if err != nil {
		return nil, err
	}
	for room := range subs {
		for _, sub := range subs[room] {
			t.subs = append(t.subs, sub)
			r.subs = append(r.subs, batchSubscriber(sub, room))
		}
	}
	for p := 0; p < e.spec.pubs; p++ {
		c, err := t.dial(fmt.Sprintf("pub-%d", p))
		if err != nil {
			return nil, err
		}
		r.pubs = append(r.pubs, batchPublisher(c, e.spec.topics, false))
	}
	return r, nil
}

func buildRecordedReplay(ctx context.Context, e *engine) (r *rig, err error) {
	dir, err := os.MkdirTemp(e.dir, "topiclog-")
	if err != nil {
		return nil, err
	}
	t, err := newTCPRig(broker.Config{RecordPatterns: []string{replayPattern}, RecordDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	joinCtx, stopJoiners := context.WithCancel(context.Background())
	closeAll := func() {
		stopJoiners()
		t.close()
		os.RemoveAll(dir)
	}
	defer closeOnError(&err, closeAll)
	prefill := uint64(e.scaled(replayPrefill))
	r = &rig{fanout: []int{replayLive}, close: closeAll, counters: t.counters, startSeq: []uint64{prefill}}
	topics := e.spec.topics

	// Prefill the log on the connection the live publisher keeps using,
	// so the whole log is one ordered stream from publisher 0.
	pc, err := t.dial("pub-0")
	if err != nil {
		return nil, err
	}
	pub := batchPublisher(pc, topics, true)
	buf := make([]byte, e.spec.payload)
	for seq := uint64(1); seq <= prefill; seq++ {
		e.stampPayload(buf, 0, seq, 0)
		if err := pub.publish(0, buf); err != nil {
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}
	log := t.b.TopicLog(replayPattern)
	if log == nil {
		return nil, fmt.Errorf("no topic log for %s", replayPattern)
	}
	for deadline := time.Now().Add(30 * time.Second); log.NextSeq() <= prefill; {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("prefill: log holds %d of %d events", log.NextSeq()-1, prefill)
		}
		time.Sleep(time.Millisecond)
	}
	r.pubs = []publisher{pub}

	for i := 0; i < replayLive; i++ {
		c, err := t.dial(fmt.Sprintf("live-%d", i))
		if err != nil {
			return nil, err
		}
		sub, err := c.SubscribeContext(ctx, topics[0], lectureDepth)
		if err != nil {
			return nil, err
		}
		t.subs = append(t.subs, sub)
		r.subs = append(r.subs, batchSubscriber(sub, 0))
	}
	for i := 0; i < replayJoiners; i++ {
		c, err := t.dial(fmt.Sprintf("joiner-%d", i))
		if err != nil {
			return nil, err
		}
		phase := time.Duration(e.rng.Int63n(int64(200 * time.Millisecond)))
		r.subs = append(r.subs, &subscriber{replay: true, run: func(s *sink) {
			select {
			case <-time.After(phase):
			case <-joinCtx.Done():
				return
			}
			for joinCtx.Err() == nil {
				replayPass(joinCtx, c, s)
			}
		}})
	}
	return r, nil
}

// replayPass is one late-joiner pass: replay the log from its first
// record, follow the hand-off to live delivery for handoffTail more
// events, cancel.
func replayPass(ctx context.Context, c *broker.Client, s *sink) {
	sub, err := c.SubscribeReplay(ctx, replayPattern, 0, 1024)
	if err != nil {
		if ctx.Err() == nil {
			s.chk.corrupt++ // a refused replay is a failed operation
			time.Sleep(10 * time.Millisecond)
		}
		return
	}
	// RecvBatch has no context: a watcher cancels the subscription when
	// the run ends, which closes the ring under the blocked call.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			_ = sub.Cancel()
		case <-done:
		}
	}()
	s.newPass()
	var target uint64
	buf := make([]*event.Event, 0, recvBatchSize)
	for {
		var ok bool
		buf, ok = sub.RecvBatch(buf[:0], recvBatchSize)
		now := nowNs()
		for _, ev := range buf {
			s.deliver(0, now, ev.Payload)
		}
		clear(buf)
		if target == 0 {
			select {
			case <-sub.CaughtUp():
				target = s.e.pubs[0].sent.Load() + handoffTail
			default:
			}
		}
		if !ok || (target > 0 && s.chk.seen(0) >= target) {
			break
		}
	}
	_ = sub.Cancel() // the ring is closed either way; a dead conn ends the run loop
}

func buildSDKInproc(ctx context.Context, e *engine) (r *rig, err error) {
	m := globalmmcs.NewMetrics()
	srv, err := globalmmcs.Start(ctx, globalmmcs.WithoutSIP(), globalmmcs.WithoutH323(),
		globalmmcs.WithoutRTSP(), globalmmcs.WithoutIM(), globalmmcs.WithMetrics(m))
	if err != nil {
		return nil, err
	}
	var clients []*globalmmcs.Client
	var streams []*globalmmcs.MediaSubscription
	closeAll := func() {
		for _, st := range streams {
			_ = st.Close()
		}
		for _, c := range clients {
			_ = c.Close()
		}
		srv.Stop()
	}
	defer closeOnError(&err, closeAll)
	host, err := srv.Client(ctx, "pub-0")
	if err != nil {
		return nil, err
	}
	clients = append(clients, host)
	sess, err := host.CreateSession(ctx, "bench")
	if err != nil {
		return nil, err
	}
	if err := sess.Join(ctx, "pub-terminal"); err != nil {
		return nil, err
	}
	r = &rig{fanout: []int{sdkSubs}, close: closeAll}
	for i := 0; i < sdkSubs; i++ {
		c, err := srv.Client(ctx, fmt.Sprintf("sub-%d", i))
		if err != nil {
			return nil, err
		}
		clients = append(clients, c)
		js, err := c.Join(ctx, sess.ID(), "terminal")
		if err != nil {
			return nil, err
		}
		st, err := js.Subscribe(ctx, globalmmcs.Video, globalmmcs.WithBuffer(1024), globalmmcs.WithDropPolicy(globalmmcs.Block))
		if err != nil {
			return nil, err
		}
		streams = append(streams, st)
		r.subs = append(r.subs, &subscriber{delayed: true, run: func(s *sink) {
			for {
				entered := s.enter()
				pkt, err := st.Recv(context.Background())
				if err != nil {
					return
				}
				s.deliver(entered, nowNs(), pkt.Payload())
			}
		}})
	}
	pub, err := sess.Publisher(globalmmcs.Video)
	if err != nil {
		return nil, err
	}
	// In-process links move the event by pointer, so subscribers read
	// the very slice Publish was given: it must not be reused.
	r.pubs = []publisher{{fresh: true, publish: func(_ int, payload []byte) error { return pub.Publish(payload) }}}
	r.counters = func() map[string]float64 {
		out := make(map[string]float64)
		brokerCounters(m.Report(), out)
		for _, st := range streams {
			out["sdk.stream_drops"] += float64(st.Drops())
		}
		return out
	}
	return r, nil
}

// scratchDir makes the directory rigs may write under. It sits beside
// the benchmark's own files so a run never writes outside its checkout.
func scratchDir() (string, error) {
	dir := filepath.Join(benchDir(), "out", "tmp")
	return dir, os.MkdirAll(dir, 0o755)
}
