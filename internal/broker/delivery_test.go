package broker

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

func deliveryEvent(id uint64, topic string, reliable bool) *event.Event {
	e := event.New(topic, event.KindRTP, []byte("delivery"))
	e.Source = "delivery-pub"
	e.ID = id
	e.Reliable = reliable
	return e
}

// TestDeliverBatchSingleLockSingleWakeup is the client-side batching
// contract in one assertion: delivering a burst of K events to a
// subscription costs ONE ring-lock acquisition and ONE consumer wakeup
// — not K — as counted by the subscription's instrumented mutex and
// wakeup token.
func TestDeliverBatchSingleLockSingleWakeup(t *testing.T) {
	sub := newSubscription(nil, "/burst/t", 64)
	done := make(chan struct{})
	defer close(done)

	const burst = 16
	events := make([]*event.Event, burst)
	for i := range events {
		events[i] = deliveryEvent(uint64(i+1), "/burst/t", false)
	}
	sub.deliverBatch(events, done)

	st := sub.DeliveryStats()
	if st.Bursts != 1 {
		t.Fatalf("one burst cost %d ring lock acquisitions, want 1", st.Bursts)
	}
	if st.Wakeups != 1 {
		t.Fatalf("one burst deposited %d wakeups, want 1", st.Wakeups)
	}
	if st.Events != burst {
		t.Fatalf("admitted %d events, want %d", st.Events, burst)
	}

	// The consumer drains the whole burst under one lock too, in order.
	buf, ok := sub.RecvBatch(nil, burst)
	if !ok || len(buf) != burst {
		t.Fatalf("RecvBatch = %d events, ok=%v; want %d", len(buf), ok, burst)
	}
	for i, e := range buf {
		if e.ID != uint64(i+1) {
			t.Fatalf("event %d has ID %d, want %d (order broken)", i, e.ID, i+1)
		}
	}

	// A second burst costs exactly one more lock and wakeup.
	sub.deliverBatch(events, done)
	if st := sub.DeliveryStats(); st.Bursts != 2 || st.Wakeups != 2 {
		t.Fatalf("after two bursts: %d locks / %d wakeups, want 2 / 2", st.Bursts, st.Wakeups)
	}
}

// fakeBrokerConn is the broker end of a pipe attached to a real Client;
// it lets tests hand the client exact bursts and observe the exact
// reverse-path traffic, with no broker timing in between.
type fakeBrokerRig struct {
	c      *Client
	conn   transport.Conn
	bc     transport.EventBatchConn
	recvCh chan *event.Event
}

func newFakeBrokerRig(t *testing.T, id string) *fakeBrokerRig {
	t.Helper()
	clientEnd, brokerEnd := transport.Pipe("mem:client", "mem:fake-broker")
	c, err := Attach(clientEnd, id)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	// Consume the hello the client sent at attach.
	if first, err := brokerEnd.Recv(); err != nil || first.Topic != topicHello {
		t.Fatalf("expected hello, got %v (err %v)", first, err)
	}
	rig := &fakeBrokerRig{
		c:      c,
		conn:   brokerEnd,
		bc:     brokerEnd.(transport.EventBatchConn),
		recvCh: make(chan *event.Event, 256),
	}
	go func() {
		for {
			e, err := brokerEnd.Recv()
			if err != nil {
				close(rig.recvCh)
				return
			}
			rig.recvCh <- e
		}
	}()
	return rig
}

// addSub registers a subscription on the client directly, skipping the
// control-plane round trip a real broker would run.
func (r *fakeBrokerRig) addSub(t *testing.T, pattern string, depth int) *Subscription {
	t.Helper()
	sub := newSubscription(r.c, pattern, depth)
	r.c.mu.Lock()
	if err := r.c.subs.Add(pattern, sub); err != nil {
		r.c.mu.Unlock()
		t.Fatal(err)
	}
	r.c.subSet[sub] = struct{}{}
	r.c.routeEpoch.Add(1)
	r.c.mu.Unlock()
	return sub
}

// TestClientBurstDispatchOneLockPerSubscription drives a real Client's
// read loop with one wire burst fanning out to multiple subscriptions
// and asserts the end-to-end contract: each subscription is locked and
// woken exactly once for the whole burst.
func TestClientBurstDispatchOneLockPerSubscription(t *testing.T) {
	rig := newFakeBrokerRig(t, "burst-client")
	subA := rig.addSub(t, "/burst/#", 512)
	subB := rig.addSub(t, "/burst/a", 512)

	const burst = 64
	events := make([]*event.Event, burst)
	for i := range events {
		topic := "/burst/a"
		if i%2 == 1 {
			topic = "/burst/b"
		}
		events[i] = deliveryEvent(uint64(i+1), topic, false)
	}
	if err := rig.bc.SendEvents(events); err != nil {
		t.Fatal(err)
	}

	// subA matches all 64, subB the 32 events on /burst/a.
	bufA, ok := subA.RecvBatch(nil, burst)
	if !ok || len(bufA) != burst {
		t.Fatalf("subA got %d events (ok=%v), want %d", len(bufA), ok, burst)
	}
	for i, e := range bufA {
		if e.ID != uint64(i+1) {
			t.Fatalf("subA event %d has ID %d, want %d (cross-topic order broken)", i, e.ID, i+1)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	var bufB []*event.Event
	for len(bufB) < burst/2 && time.Now().Before(deadline) {
		var got bool
		bufB, got = subB.TryRecvBatch(bufB, burst)
		if !got {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if len(bufB) != burst/2 {
		t.Fatalf("subB got %d events, want %d", len(bufB), burst/2)
	}
	prev := uint64(0)
	for _, e := range bufB {
		if e.ID <= prev {
			t.Fatalf("subB order broken: %d after %d", e.ID, prev)
		}
		prev = e.ID
	}

	if st := subA.DeliveryStats(); st.Bursts != 1 || st.Wakeups != 1 {
		t.Fatalf("subA: %d locks / %d wakeups for one wire burst, want 1 / 1", st.Bursts, st.Wakeups)
	}
	if st := subB.DeliveryStats(); st.Bursts != 1 || st.Wakeups != 1 {
		t.Fatalf("subB: %d locks / %d wakeups for one wire burst, want 1 / 1", st.Bursts, st.Wakeups)
	}
}

// TestStageSlotClobberRecovery: two sweeps interleaving stage calls on
// the same target session (the concurrent-publisher topology) keep the
// one-lock-per-burst-per-session contract — a clobbered staging slot
// falls back to the per-sweep map instead of staging the session twice.
func TestStageSlotClobberRecovery(t *testing.T) {
	b := New(Config{ID: "clobber"})
	defer b.Stop()
	target := newSession(b, newCaptureConn(), "clobber-sub", false)
	if err := b.router.add("/cl/t", target); err != nil {
		t.Fatal(err)
	}
	s1 := b.newRouteSweep()
	s2 := b.newRouteSweep()
	// Interleave: each stage call overwrites the shared stageSlot, so
	// every subsequent stage on the other sweep takes the recovery path.
	for i := 0; i < 8; i++ {
		s1.stage(target, outItem{e: deliveryEvent(uint64(100+i), "/cl/t", false)})
		s2.stage(target, outItem{e: deliveryEvent(uint64(200+i), "/cl/t", false)})
	}
	s1.finish()
	s2.finish()
	if locks := target.queue.pushLockCount(); locks != 2 {
		t.Fatalf("two interleaved sweeps cost %d queue locks, want 2 (one per sweep)", locks)
	}
	if depth := target.queue.depth(); depth != 16 {
		t.Fatalf("queue depth %d, want 16", depth)
	}
}

// TestConcurrentSweepsThroughWriterPool drives four concurrent
// publisher bursts — each on its own reader-goroutine routeSweep — at
// the same subscriber set through the full sweep→queue→writer-pool
// path to real in-process conns, while a churner bumps the topic
// shard's epoch so the sweep-private route caches keep revalidating
// (run under -race in CI). Conservation is the oracle: concurrent
// sweeps may clobber each other's staging slots and race the epoch
// caches, but every staged event must be received exactly once or
// counted as a queue drop.
func TestConcurrentSweepsThroughWriterPool(t *testing.T) {
	b := New(Config{ID: "conc-sweep", QueueDepth: 8192})
	defer b.Stop()
	if len(b.pools) == 0 {
		t.Fatal("expected writer pools under the default config")
	}

	const subscribers = 4
	const publishers = 4
	const rounds = 24
	const burst = 48

	var received [subscribers]atomic.Uint64
	for i := 0; i < subscribers; i++ {
		brokerEnd, clientEnd := transport.Pipe("broker", fmt.Sprintf("conc-sub-%d", i))
		defer brokerEnd.Close()
		defer clientEnd.Close()
		s := newSession(b, brokerEnd, fmt.Sprintf("conc-sub-%d", i), false)
		s.bindPool(b.pools[i%len(b.pools)])
		if err := b.router.add("/conc/t", s); err != nil {
			t.Fatal(err)
		}
		go func(i int, c transport.Conn) {
			for {
				if _, err := c.Recv(); err != nil {
					return
				}
				received[i].Add(1)
			}
		}(i, clientEnd)
	}

	// Epoch churn on the shared routing state throughout the run.
	churnStop := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		churn := newSession(b, newCaptureConn(), "conc-churn", false)
		churn.bindPool(b.pools[0])
		for {
			select {
			case <-churnStop:
				return
			default:
			}
			if err := b.router.add("/conc/churn", churn); err != nil {
				return
			}
			b.router.remove("/conc/churn", churn)
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sweep := b.newRouteSweep()
			events := make([]*event.Event, burst)
			for r := 0; r < rounds; r++ {
				for i := range events {
					events[i] = deliveryEvent(uint64(p+1)<<32|uint64(r*burst+i+1), "/conc/t", false)
				}
				sweep.routeBatch(events, nil)
			}
		}(p)
	}
	wg.Wait()
	close(churnStop)
	churnWG.Wait()

	const staged = subscribers * publishers * rounds * burst
	tally := func() uint64 {
		sum := b.ctr.queueDrops.Value()
		for i := range received {
			sum += received[i].Load()
		}
		return sum
	}
	waitFor(t, 10*time.Second, func() bool { return tally() == staged },
		"concurrent sweeps lost or duplicated deliveries")
	var drained uint64
	for _, st := range b.WriterPoolStats() {
		drained += st.Drained
	}
	if drained == 0 {
		t.Fatal("no events drained through the writer pools")
	}
}

// TestCoalescedAckPerBurst: a burst of rseq-tagged reliable events
// produces exactly ONE cumulative ack on the reverse path — carrying
// the final floor — instead of one ack per event.
func TestCoalescedAckPerBurst(t *testing.T) {
	rig := newFakeBrokerRig(t, "ack-client")
	sub := rig.addSub(t, "/ack/t", 64)

	const burst = 32
	events := make([]*event.Event, burst)
	for i := range events {
		e := deliveryEvent(uint64(i+1), "/ack/t", true)
		e.RSeq = uint64(i + 1)
		events[i] = e
	}
	if err := rig.bc.SendEvents(events); err != nil {
		t.Fatal(err)
	}

	// Exactly one ack, with the cumulative floor of the whole burst.
	select {
	case ack := <-rig.recvCh:
		if ack.Topic != topicAck {
			t.Fatalf("reverse path carried %q, want ack", ack.Topic)
		}
		if got := ack.Headers[hdrRSeq]; got != "32" {
			t.Fatalf("cumulative ack = %s, want 32", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no ack for a reliable burst")
	}
	select {
	case extra := <-rig.recvCh:
		t.Fatalf("second reverse-path event %v; want one coalesced ack per burst", extra)
	case <-time.After(100 * time.Millisecond):
	}
	if n := rig.c.AckSends(); n != 1 {
		t.Fatalf("client counted %d ack sends for one burst, want 1", n)
	}

	// All events delivered, in order, none dropped (they are reliable).
	buf, ok := sub.RecvBatch(nil, burst)
	if !ok || len(buf) != burst {
		t.Fatalf("delivered %d/%d reliable events", len(buf), burst)
	}
	for i, e := range buf {
		if e.ID != uint64(i+1) || e.RSeq != 0 {
			t.Fatalf("event %d: ID %d RSeq %d; want ID %d with the tag stripped", i, e.ID, e.RSeq, i+1)
		}
	}
	if sub.Drops() != 0 {
		t.Fatalf("reliable burst recorded %d drops", sub.Drops())
	}
}

// TestPerEventDispatchAblation: SetDispatchBurst(1) degenerates the
// client to event-at-a-time delivery — one lock, one wakeup, one ack
// per event — the measured baseline configuration.
func TestPerEventDispatchAblation(t *testing.T) {
	rig := newFakeBrokerRig(t, "ablation-client")
	rig.c.SetDispatchBurst(1)
	sub := rig.addSub(t, "/abl/t", 64)

	const burst = 8
	events := make([]*event.Event, burst)
	for i := range events {
		e := deliveryEvent(uint64(i+1), "/abl/t", true)
		e.RSeq = uint64(i + 1)
		events[i] = e
	}
	if err := rig.bc.SendEvents(events); err != nil {
		t.Fatal(err)
	}
	buf, ok := sub.RecvBatch(nil, burst)
	for ok && len(buf) < burst {
		buf, ok = sub.RecvBatch(buf, burst-len(buf))
	}
	if len(buf) != burst {
		t.Fatalf("delivered %d/%d", len(buf), burst)
	}
	if st := sub.DeliveryStats(); st.Bursts != burst {
		t.Fatalf("ablation delivered %d events in %d bursts, want one burst per event", burst, st.Bursts)
	}
	// Per-event acks: one per tagged event.
	deadline := time.Now().Add(2 * time.Second)
	for rig.c.AckSends() < burst && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := rig.c.AckSends(); n != burst {
		t.Fatalf("ablation sent %d acks for %d events, want one per event", n, burst)
	}
}

// TestReliableNeverDroppedFromRing: best-effort overflow evicts only
// best-effort entries; reliable events survive any flood. A reliable
// event arriving at a full ring parks (the producer keeps going), and
// only once ring AND park are full does the producer block until the
// consumer frees space — nothing reliable is ever dropped.
func TestReliableNeverDroppedFromRing(t *testing.T) {
	sub := newSubscription(nil, "/rel/t", 4)
	done := make(chan struct{})
	defer close(done)

	// Fill the ring with one reliable event ahead of best-effort
	// traffic, then flood it: every eviction must skip the reliable
	// entry.
	sub.deliverBatch([]*event.Event{
		deliveryEvent(1, "/rel/t", true),
		deliveryEvent(2, "/rel/t", false),
		deliveryEvent(3, "/rel/t", false),
		deliveryEvent(4, "/rel/t", false),
	}, done)
	flood := make([]*event.Event, 6)
	for i := range flood {
		flood[i] = deliveryEvent(uint64(5+i), "/rel/t", false)
	}
	sub.deliverBatch(flood, done)

	buf, _ := sub.TryRecvBatch(nil, 64)
	want := []uint64{1, 8, 9, 10} // the reliable head survived, oldest best-effort evicted
	if len(buf) != len(want) {
		t.Fatalf("ring holds %d events, want %d", len(buf), len(want))
	}
	for i, e := range buf {
		if e.ID != want[i] {
			t.Fatalf("ring slot %d has ID %d, want %d", i, e.ID, want[i])
		}
	}
	if !buf[0].Reliable {
		t.Fatal("reliable event was evicted by a best-effort flood")
	}
	if got := len(buf) + int(sub.Drops()); got != 10 {
		t.Fatalf("conservation broken: %d received + %d dropped != 10", len(buf), sub.Drops())
	}

	// Fill the ring with reliable events: the next reliable burst parks
	// (the caller — the client readLoop — must not block while park
	// space remains), and only a reliable event past ring+park capacity
	// blocks the producer. Nothing drops in either regime.
	fill := make([]*event.Event, 4)
	for i := range fill {
		fill[i] = deliveryEvent(uint64(100+i), "/rel/t", true)
	}
	sub.deliverBatch(fill, done)
	parkFill := make([]*event.Event, 4) // park bound = ring depth = 4
	for i := range parkFill {
		parkFill[i] = deliveryEvent(uint64(200+i), "/rel/t", true)
	}
	overflowDone := make(chan struct{})
	go func() {
		sub.deliverBatch(parkFill, done)
		close(overflowDone)
	}()
	select {
	case <-overflowDone:
	case <-time.After(2 * time.Second):
		t.Fatal("reliable overflow blocked the producer while park space remained")
	}
	if st := sub.DeliveryStats(); st.ParkedEvents != 4 {
		t.Fatalf("parked %d events, want 4 (stats %+v)", st.ParkedEvents, st)
	}
	blocked := make(chan struct{})
	go func() {
		sub.deliverBatch([]*event.Event{deliveryEvent(300, "/rel/t", true)}, done)
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("reliable delivery did not block on a full ring+park")
	case <-time.After(50 * time.Millisecond):
	}
	drained, _ := sub.TryRecvBatch(nil, 2)
	if len(drained) != 2 {
		t.Fatalf("drained %d, want 2", len(drained))
	}
	select {
	case <-blocked:
	case <-time.After(2 * time.Second):
		t.Fatal("reliable delivery still blocked after space was freed")
	}
	total := drained
	deadline := time.Now().Add(5 * time.Second)
	for len(total) < 9 {
		if time.Now().After(deadline) {
			t.Fatalf("drained %d/9 backpressured events before timeout", len(total))
		}
		rest, ok := sub.TryRecvBatch(nil, 16)
		if !ok {
			t.Fatal("subscription closed while draining backpressured traffic")
		}
		total = append(total, rest...)
		if len(rest) == 0 {
			time.Sleep(time.Millisecond) // park drainer still moving events
		}
	}
	if len(total) != 9 {
		t.Fatalf("reliable backpressure delivered %d/9 events", len(total))
	}
	for i, e := range total {
		var want uint64
		switch {
		case i < 4:
			want = uint64(100 + i)
		case i < 8:
			want = uint64(200 + i - 4)
		default:
			want = 300
		}
		if e.ID != want {
			t.Fatalf("event %d has ID %d, want %d", i, e.ID, want)
		}
	}
	if sub.Drops() != 6 { // only the best-effort evictions from the first flood
		t.Fatalf("drops = %d, want 6", sub.Drops())
	}
}

// TestDeliveryDropConservation: under a sustained overload flood with a
// concurrent consumer, every event is either received or counted as
// dropped — exactly once. Run with -race this also hammers the
// producer/consumer ring paths.
func TestDeliveryDropConservation(t *testing.T) {
	sub := newSubscription(nil, "/cons/t", 8)
	done := make(chan struct{})
	defer close(done)

	const total = 5000
	var received int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]*event.Event, 0, 64)
		for {
			var ok bool
			buf, ok = sub.RecvBatch(buf[:0], 64)
			received += len(buf)
			if !ok {
				return
			}
		}
	}()

	batch := make([]*event.Event, 0, 32)
	i := 1
	for i <= total {
		batch = batch[:0]
		for ; i <= total && len(batch) < 32; i++ {
			batch = append(batch, deliveryEvent(uint64(i), "/cons/t", false))
		}
		sub.deliverBatch(batch, done)
	}
	// Close the ring: buffered events are still drained before the
	// consumer observes closure, and drops are final once deliverBatch
	// returned.
	sub.closeRing()
	wg.Wait()

	if got := received + int(sub.Drops()); got != total {
		t.Fatalf("conservation broken: %d received + %d dropped = %d, want %d",
			received, sub.Drops(), got, total)
	}
}

// TestSubscriptionCloseDuringBurst: cancelling a subscription (and
// tearing down the client) while bursts are in flight never panics,
// deadlocks, or leaks a blocked producer. Run under -race in CI.
func TestSubscriptionCloseDuringBurst(t *testing.T) {
	for round := 0; round < 50; round++ {
		sub := newSubscription(nil, "/close/t", 8)
		done := make(chan struct{})
		burst := make([]*event.Event, 16)
		for i := range burst {
			// Mix reliable events in so close must also unblock a
			// producer waiting on ring space.
			burst[i] = deliveryEvent(uint64(i+1), "/close/t", i%3 == 0)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				sub.deliverBatch(burst, done)
			}
		}()
		go func() {
			defer wg.Done()
			buf := make([]*event.Event, 0, 8)
			for i := 0; i < 5; i++ {
				var ok bool
				buf, ok = sub.TryRecvBatch(buf[:0], 8)
				if !ok {
					return
				}
			}
		}()
		sub.closeRing()
		close(done)
		wg.Wait()
	}
}

// TestCompatChannelAfterBatchedDelivery: the C() facade still delivers
// batched traffic per event, in order, and closes on cancel — the
// compatibility contract legacy consumers (gateways, tools, tests)
// rely on.
func TestCompatChannelAfterBatchedDelivery(t *testing.T) {
	b := New(Config{ID: "compat"})
	defer b.Stop()
	sub, err := b.LocalClient("compat-sub", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	s, err := sub.Subscribe("/compat/t", 64)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := b.LocalClient("compat-pub", transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	const n = 40
	for i := 1; i <= n; i++ {
		if err := pub.Publish("/compat/t", event.KindData, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	timeout := time.After(5 * time.Second)
	for i := 1; i <= n; i++ {
		select {
		case e := <-s.C():
			if int(e.Payload[0]) != i {
				t.Fatalf("event %d carried %d (order broken)", i, e.Payload[0])
			}
		case <-timeout:
			t.Fatalf("only %d/%d events through the compat channel", i-1, n)
		}
	}
	if err := sub.Unsubscribe(s); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-s.C():
		if ok {
			t.Fatal("compat channel delivered after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("compat channel not closed after unsubscribe")
	}
}

// TestCoalescedAcksLossLink: reliable delivery over a lossy framed link
// still converges to exactly-once delivery with coalesced acks — the
// retransmit machinery is not regressed by sending one cumulative ack
// per burst, and the ack traffic stays bounded by what arrived.
func TestCoalescedAcksLossLink(t *testing.T) {
	b := New(Config{
		ID:                 "ack-loss",
		RetransmitInterval: 20 * time.Millisecond,
		MaxRetransmits:     100,
	})
	defer b.Stop()
	inner, err := transport.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b.Serve(&lossyListener{Listener: inner, profile: transport.LinkProfile{Loss: 0.25, Seed: 7}})

	c, err := Dial(inner.Addr(), "ack-loss-client")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe("/ackloss/t", 256)
	if err != nil {
		t.Fatal(err)
	}

	const n = 60
	for i := 1; i <= n; i++ {
		e := event.New("/ackloss/t", event.KindControl, []byte("r"))
		e.Reliable = true
		e.Source = "ack-loss-pub"
		e.ID = uint64(i)
		if err := b.Publish(e); err != nil {
			t.Fatal(err)
		}
	}

	seen := make(map[uint64]int)
	buf := make([]*event.Event, 0, 64)
	deadline := time.Now().Add(20 * time.Second)
	for len(seen) < n && time.Now().Before(deadline) {
		var ok bool
		buf, ok = sub.RecvBatch(buf[:0], 64)
		for _, e := range buf {
			seen[e.ID]++
		}
		clear(buf)
		if !ok {
			break
		}
	}
	if len(seen) != n {
		t.Fatalf("only %d/%d reliable events arrived over the lossy link", len(seen), n)
	}
	for id, count := range seen {
		if count != 1 {
			t.Fatalf("event %d delivered %d times, want exactly once", id, count)
		}
	}
	retrans := b.Metrics().Counter("broker.retransmits").Value()
	if retrans == 0 {
		t.Fatal("no retransmissions on a 25%-loss link")
	}
	acks := c.AckSends()
	if acks == 0 {
		t.Fatal("client sent no acks")
	}
	// Every ack is triggered by at least one tagged arrival; arrivals
	// are bounded by original sends plus retransmissions. Coalescing can
	// only push the count below this.
	if acks > uint64(n)+retrans {
		t.Fatalf("%d acks for at most %d tagged arrivals", acks, uint64(n)+retrans)
	}
	if got := b.Metrics().Counter("broker.acks_in").Value(); got == 0 {
		t.Fatal("broker recorded no inbound acks")
	}
}

// TestOverflowDropModes: the two SDK overflow modes treat both lanes
// alike at a full ring — drop-oldest displaces a buffered reliable
// event, drop-newest sheds a reliable newcomer, neither parks or blocks
// — and the drop hook sees exactly the shed count, outside the ring
// lock (it takes that lock itself here).
func TestOverflowDropModes(t *testing.T) {
	for _, tc := range []struct {
		mode OverflowMode
		want []uint64
	}{
		{OverflowDropOldest, []uint64{5, 6, 7}},
		{OverflowDropNewest, []uint64{1, 2, 3}},
	} {
		sub := newSubscription(nil, "/ovf/t", 3)
		var hooked uint64
		sub.SetOverflow(tc.mode, func(n uint64) {
			_ = sub.DeliveryStats() // deadlocks if the hook ran under mu
			hooked += n
		})
		burst := make([]*event.Event, 7)
		for i := range burst {
			burst[i] = deliveryEvent(uint64(i+1), "/ovf/t", i%2 == 0)
		}
		sub.deliverBatch(burst[:2], nil)
		sub.deliverBatch(burst[2:], nil) // returns: nothing blocks on a full ring
		if hooked != 4 || sub.Drops() != 4 {
			t.Fatalf("mode %d: hook saw %d drops, counter %d, want 4", tc.mode, hooked, sub.Drops())
		}
		if st := sub.DeliveryStats(); st.ParkedEvents != 0 {
			t.Fatalf("mode %d: %d events parked", tc.mode, st.ParkedEvents)
		}
		buf, _ := sub.TryRecvBatch(nil, 8)
		if len(buf) != len(tc.want) {
			t.Fatalf("mode %d: ring holds %d events, want %d", tc.mode, len(buf), len(tc.want))
		}
		for i, e := range buf {
			if e.ID != tc.want[i] {
				t.Fatalf("mode %d: slot %d has ID %d, want %d", tc.mode, i, e.ID, tc.want[i])
			}
		}
		// The reliable count followed the displacements: a lanes-mode
		// ring that miscounted would now misjudge what it may evict.
		sub.mu.Lock()
		relN, n := sub.relN, sub.n
		sub.mu.Unlock()
		if relN != 0 || n != 0 {
			t.Fatalf("mode %d: drained ring counts n=%d relN=%d", tc.mode, n, relN)
		}
	}
}

// TestRecvBatchContext: a blocked receive returns on cancel and on
// close, and a cancel racing a delivery never loses the event — it is
// either returned or still in the ring for the next call.
func TestRecvBatchContext(t *testing.T) {
	sub := newSubscription(nil, "/ctx/t", 8)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := sub.RecvBatchContext(ctx, nil, 8)
		errc <- err
	}()
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked recv on cancel = %v", err)
	}

	const rounds = 2000
	var next uint64 = 1
	for i := 0; i < rounds; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func(id uint64) {
			sub.deliverBatch([]*event.Event{deliveryEvent(id, "/ctx/t", false)}, nil)
		}(uint64(i + 1))
		go cancel()
		for next == uint64(i+1) {
			out, err := sub.RecvBatchContext(ctx, nil, 8)
			if err != nil {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("round %d: %v", i, err)
				}
				ctx = context.Background() // lost the race: the event must still come
				continue
			}
			for _, e := range out {
				if e.ID != next {
					t.Fatalf("round %d: got ID %d, want %d", i, e.ID, next)
				}
				next++
			}
		}
	}

	go func() {
		_, err := sub.RecvBatchContext(context.Background(), nil, 8)
		errc <- err
	}()
	sub.closeRing()
	if err := <-errc; err != ErrSubscriptionClosed {
		t.Fatalf("blocked recv on close = %v", err)
	}
}
