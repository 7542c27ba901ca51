package broker

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/testutil"
	"github.com/globalmmcs/globalmmcs/internal/topiclog"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// replayRig is a framed session (hand-attached, no goroutines) with a
// replay stream over a log prefilled with records encoded events of
// size payload bytes — the pump's seams without the pump.
func replayRig(tb testing.TB, records, size int) (*session, *sessionReplay) {
	tb.Helper()
	b := New(Config{
		ID:             "replay-rig",
		RecordPatterns: []string{"/rec/#"},
		RecordDir:      tb.TempDir(),
		reliableWindow: 1 << 20,
	})
	tb.Cleanup(b.Stop)
	log := b.TopicLog("/rec/#")
	e := event.New("/rec/a", event.KindRTP, make([]byte, size))
	e.Source = "rig-pub"
	batch := make([][]byte, 0, 256)
	for i := 1; i <= records; i++ {
		e.ID = uint64(i)
		batch = append(batch, event.Marshal(e))
		if len(batch) == cap(batch) || i == records {
			if _, err := log.Append(batch); err != nil {
				tb.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	s := newSession(b, newCaptureConn(), "rig-sub", false)
	if !s.framed {
		tb.Fatal("setup: capture conn session is not framed")
	}
	sr := &sessionReplay{id: 7, cur: log.NewCursor(0), env: replayDataEvent(7, nil), stop: make(chan struct{})}
	tb.Cleanup(sr.cur.Close)
	return s, sr
}

// envelopeIDs pops one queued envelope and returns the event ids of the
// records it carries, checking the frame is what a client would parse.
func envelopeIDs(tb testing.TB, s *session) (ids []uint64) {
	tb.Helper()
	it, st := popOne(s.queue)
	if st != popOK || it.frame == nil || !it.reliable {
		tb.Fatalf("no frame-backed reliable envelope queued (state %v)", st)
	}
	env, err := it.frame.Decode()
	if err != nil {
		tb.Fatalf("envelope does not decode: %v", err)
	}
	if env.Topic != topicReplayData || env.Headers[hdrReplay] != "7" || !env.Reliable {
		tb.Fatalf("envelope decoded to %+v", env)
	}
	for payload := env.Payload; len(payload) > 0; {
		_, rec, n, err := topiclog.ParseRecord(payload)
		if err != nil {
			tb.Fatalf("envelope record: %v", err)
		}
		ev, err := event.Unmarshal(rec)
		if err != nil {
			tb.Fatalf("envelope record does not decode: %v", err)
		}
		ids = append(ids, ev.ID)
		payload = payload[n:]
	}
	return ids
}

// TestReliableFanoutNeverStampsShared fans one reliable event out to K
// framed sessions sitting at different points of their rseq spaces: each
// gets its own tag, the shared slot frame is left untouched (it is
// tagged on copies, never in place), and the whole fan-out is still one
// marshal.
func TestReliableFanoutNeverStampsShared(t *testing.T) {
	b := New(Config{ID: "rel-shared"})
	defer b.Stop()
	const fanout = 16
	e := burstEvent(1, "/rel/t")
	e.Reliable = true
	fs := b.newRouteSweep().source(e)

	before := event.MarshalCalls()
	base := bytes.Clone(fs.reliableFrame().Bytes())
	sessions := make([]*session, fanout)
	for i := range sessions {
		s := newSession(b, newCaptureConn(), fmt.Sprintf("rel-sub-%d", i), false)
		s.nextRSeq = uint64(100 * i)
		s.sendReliableFrom(e, fs)
		sessions[i] = s
	}
	if d := event.MarshalCalls() - before; d != 1 {
		t.Fatalf("fan-out to %d framed sessions marshalled %d times, want 1", fanout, d)
	}
	if !bytes.Equal(fs.reliableFrame().Bytes(), base) {
		t.Fatal("the shared slot frame was stamped in place")
	}
	for i, s := range sessions {
		it, st := popOne(s.queue)
		if st != popOK || it.frame == nil {
			t.Fatalf("session %d: no frame-backed reliable item", i)
		}
		if it.frame == fs.reliableFrame() {
			t.Fatalf("session %d queued the shared frame itself", i)
		}
		if got, want := it.frame.RSeq(), uint64(100*i+1); got != want {
			t.Fatalf("session %d: trailing rseq %d, want %d", i, got, want)
		}
	}
}

// TestOwnedFrameRetransmitIdentical: an unshared reliable send is
// encoded once and stamped in place, and its retransmission is that
// same frame, byte for byte.
func TestOwnedFrameRetransmitIdentical(t *testing.T) {
	b := New(Config{ID: "rel-owned"})
	defer b.Stop()
	s := newSession(b, newCaptureConn(), "owned-sub", false)
	s.nextRSeq = 41

	before := event.MarshalCalls()
	s.sendReliable(replayReplyEvent(repOK, 7, ""))
	if d := event.MarshalCalls() - before; d != 1 {
		t.Fatalf("unshared reliable send marshalled %d times, want 1", d)
	}
	first, st := popOne(s.queue)
	if st != popOK || first.frame == nil || first.frame.RSeq() != 42 {
		t.Fatalf("first send: state %v frame %v", st, first.frame)
	}
	sent := bytes.Clone(first.frame.Bytes())

	if s.retransmit(time.Now().Add(time.Hour), time.Second, 8) {
		t.Fatal("retransmit asked to close a session on its first retry")
	}
	again, st := popOne(s.queue)
	if st != popOK || again.frame != first.frame || !bytes.Equal(again.frame.Bytes(), sent) {
		t.Fatalf("retransmission is not the frame first sent (state %v)", st)
	}
}

// TestReplayEnvelopeAllocs gates the lane's allocation budget on a
// framed session: one history envelope costs the frame buffer and the
// Frame (the window entry is a slot in the window's ring); one tail
// batch costs the same two. Nothing is popped or acked while measuring,
// so the send queue's and the window's own (amortized, sub-unit) growth
// is all that rides along.
func TestReplayEnvelopeAllocs(t *testing.T) {
	s, sr := replayRig(t, 20_000, 1200)
	var buf []byte
	step := func() {
		var progressed bool
		var err error
		if buf, progressed, err = s.pumpHistory(sr, buf); err != nil || !progressed || buf != nil {
			t.Fatalf("pump step: progressed %v err %v kept its buffer %v", progressed, err, buf != nil)
		}
	}
	for i := 0; i < 64; i++ {
		step() // past the queue's and the window's early doublings
	}
	if got := testing.AllocsPerRun(50, step); got > 2 {
		t.Fatalf("one history envelope allocated %.0f times, want <= 2 (buffer, Frame)", got)
	}

	batch := make([]byte, 0, 8*1300)
	for seq := uint64(1); seq <= 8; seq++ {
		batch = topiclog.AppendRecord(batch, seq, make([]byte, 1270))
	}
	if got := testing.AllocsPerRun(50, func() { s.deliverTail(sr, batch) }); got > 2 {
		t.Fatalf("one tail batch allocated %.0f times, want <= 2 (buffer, Frame)", got)
	}
	if s.queue.depth() != 64+51+51 {
		t.Fatalf("queued %d envelopes, want one per step", s.queue.depth())
	}
}

// TestReplayEnvelopeBounds covers the two size edges of the lane on a
// framed session: a record larger than the pump's buffer gets a buffer
// of its own (and history continues behind it), and a tail batch over
// the envelope cap is cut at whole records, a record over the cap alone
// being dropped and counted.
func TestReplayEnvelopeBounds(t *testing.T) {
	s, sr := replayRig(t, 3, 100)
	log := s.b.TopicLog("/rec/#")
	big := event.New("/rec/a", event.KindData, make([]byte, 200<<10))
	big.ID = 4
	small := event.New("/rec/a", event.KindData, []byte("tail"))
	small.ID = 5
	if _, err := log.Append([][]byte{event.Marshal(big), event.Marshal(small)}); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	var got []uint64
	for {
		var progressed bool
		var err error
		if buf, progressed, err = s.pumpHistory(sr, buf); err != nil {
			t.Fatal(err)
		}
		if !progressed {
			break
		}
		for s.queue.depth() > 0 {
			got = append(got, envelopeIDs(t, s)...)
		}
	}
	if fmt.Sprint(got) != "[1 2 3 4 5]" {
		t.Fatalf("history with a %d KiB record delivered ids %v", len(big.Payload)>>10, got)
	}

	var run []byte
	for seq := uint64(1); seq <= 3; seq++ {
		e := event.New("/rec/a", event.KindData, make([]byte, 400<<10))
		e.ID = 10 + seq
		run = topiclog.AppendRecord(run, seq, event.Marshal(e))
	}
	over := append(topiclog.AppendRecord(nil, 4, make([]byte, replayEnvelopeMax)), run...)
	oversized := s.b.ctr.oversized.Value()
	s.deliverTail(sr, over)
	if d := s.b.ctr.oversized.Value() - oversized; d != 1 {
		t.Fatalf("replay_oversized moved by %d, want 1", d)
	}
	first, second := envelopeIDs(t, s), envelopeIDs(t, s)
	if fmt.Sprint(first, second) != "[11 12] [13]" || s.queue.depth() != 0 {
		t.Fatalf("1.2 MiB tail batch split into %v %v (+%d queued)", first, second, s.queue.depth())
	}
}

// TestReplayFramedOverTCP is the late-joiner acceptance test on the
// framed lane (the in-process tests ride the unframed one): history with
// records on both sides of the pump's buffer size, a publisher racing
// the hand-off, every event exactly once and intact, in order.
func TestReplayFramedOverTCP(t *testing.T) {
	b := recordedBroker(t, "/rec/#", Config{RecordSegmentBytes: 256 << 10})
	l, err := b.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := Dial(l.Addr(), "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub, err := Dial(l.Addr(), "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	payload := func(i int) []byte {
		size := 900 + i%7*100
		if i%97 == 0 {
			size = 150 << 10 // larger than one pump buffer
		}
		p := bytes.Repeat([]byte{byte(i)}, size)
		copy(p, counterPayload(i))
		return p
	}
	const history, concurrent = 1500, 500
	for i := 1; i <= history; i++ {
		if err := pub.PublishReliable("/rec/a", event.KindData, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitRecorded(t, b, "/rec/#", history)

	s, err := sub.SubscribeReplay(context.Background(), "/rec/#", 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := history + 1; i <= history+concurrent; i++ {
			if err := pub.PublishReliable("/rec/a", event.KindData, payload(i)); err != nil {
				t.Errorf("publish: %v", err)
				return
			}
		}
	}()
	next := 1
	buf := make([]*event.Event, 0, 64)
	timeout := time.AfterFunc(20*time.Second, func() { _ = s.Cancel() })
	defer timeout.Stop()
	for next <= history+concurrent {
		var ok bool
		buf, ok = s.RecvBatch(buf[:0], 64)
		for _, e := range buf {
			if !bytes.Equal(e.Payload, payload(next)) {
				t.Fatalf("position %d got %.8q (%d bytes): duplicate, gap or damage", next, e.Payload, len(e.Payload))
			}
			next++
		}
		if !ok {
			t.Fatalf("replay ended at %d of %d: %v", next-1, history+concurrent, s.Err())
		}
	}
	select {
	case <-s.CaughtUp():
	case <-time.After(5 * time.Second):
		t.Fatal("CaughtUp never closed")
	}
}

// TestClientReplayCorruptEnvelope feeds the client an envelope whose
// second record has a flipped payload byte: the first record is
// delivered, nothing after it, the subscription ends with ErrCorrupt
// and the damage is counted — never a silent gap.
func TestClientReplayCorruptEnvelope(t *testing.T) {
	b := recordedBroker(t, "/rec/#", Config{})
	c := localClient(t, b, "sub")
	s, err := c.SubscribeReplay(context.Background(), "/rec/#", 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.CaughtUp(): // empty log: the broker-side stream is idle at the tail
	case <-time.After(5 * time.Second):
		t.Fatal("replay of an empty log never went live")
	}

	var run []byte
	for seq := uint64(1); seq <= 3; seq++ {
		e := event.New("/rec/a", event.KindData, counterPayload(int(seq)))
		run = topiclog.AppendRecord(run, seq, event.Marshal(e))
	}
	run[topiclog.FramedLen(run)+topiclog.HeaderLen+30] ^= 0x01
	// The readLoop is parked in Recv with no traffic; the envelope is
	// handed to its handler directly, as the loop would.
	c.handleReplayData(replayDataEvent(s.replay.id, run))

	got, ok := s.RecvBatch(nil, 8)
	if len(got) != 1 || string(got[0].Payload) != string(counterPayload(1)) {
		t.Fatalf("delivered %d events ahead of the damage, want exactly the first record", len(got))
	}
	if ok {
		if got, ok = s.RecvBatch(nil, 8); ok || len(got) != 0 {
			t.Fatalf("subscription stayed open past a corrupt record (%d more events)", len(got))
		}
	}
	if err := s.Err(); !errors.Is(err, topiclog.ErrCorrupt) {
		t.Fatalf("subscription ended with %v, want an error wrapping topiclog.ErrCorrupt", err)
	}
	if n := c.replayCorrupt.Load(); n != 1 {
		t.Fatalf("client.replay_corrupt = %d, want 1", n)
	}
}

// replayEnvelopeSeeds are FuzzReplayEnvelope's starting points, one per
// shape the client's end-to-end check must tell apart: a valid run, a
// flipped payload byte, a torn tail, records at or below the stream's
// last delivered sequence, a record that passes its CRC but does not
// decode, and an empty envelope.
func replayEnvelopeSeeds() (runs [][]byte, lasts []uint64) {
	record := func(run []byte, seq uint64) []byte {
		e := event.New("/rec/a", event.KindData, counterPayload(int(seq)))
		e.Source, e.ID = "fuzz-pub", seq
		return topiclog.AppendRecord(run, seq, event.Marshal(e))
	}
	var valid []byte
	for seq := uint64(1); seq <= 3; seq++ {
		valid = record(valid, seq)
	}
	flipped := bytes.Clone(valid)
	flipped[topiclog.FramedLen(valid)+topiclog.HeaderLen+30] ^= 0x01
	backwards := record(record(record(nil, 5), 3), 6)
	undecodable := topiclog.AppendRecord(bytes.Clone(valid), 4, []byte("not an event"))
	runs = [][]byte{valid, flipped, valid[:len(valid)-5], valid, backwards, undecodable, nil}
	lasts = []uint64{0, 0, 0, 2, 0, 0, 0}
	return runs, lasts
}

// FuzzReplayEnvelope drives Client.handleReplayData, the end-to-end
// check that catches a replay frame whose bytes were damaged on the way
// (torn or flipped; a buffer refilled with other whole records passes
// it, which is why the recycle rule has a test per clause), with
// arbitrary envelope payloads on a stream whose last delivered sequence
// is last. It must never panic; it must deliver exactly the longest
// prefix of records that parse and decode, skipping those at or below
// the last delivered sequence, in order; and it must end the
// subscription with ErrCorrupt exactly when damaged bytes remain.
func FuzzReplayEnvelope(f *testing.F) {
	runs, lasts := replayEnvelopeSeeds()
	for i := range runs {
		f.Add(runs[i], lasts[i])
	}
	b := New(Config{ID: "fuzz-replay"})
	f.Cleanup(b.Stop)
	c, err := b.LocalClient("fuzz-sub", transport.LinkProfile{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { c.Close() })
	f.Fuzz(func(t *testing.T, run []byte, last uint64) {
		var want []*event.Event
		damaged := false
		var in event.Interner
		for p, seen := run, last; len(p) > 0; {
			seq, rec, n, err := topiclog.ParseRecord(p)
			if err != nil {
				damaged = true
				break
			}
			p = p[n:]
			if seq <= seen {
				continue
			}
			ev, err := event.UnmarshalIntern(rec, &in)
			if err != nil {
				damaged = true
				break
			}
			seen = seq
			want = append(want, ev)
		}

		// A replay subscription as SubscribeReplay registers one, without
		// the broker-side stream: the envelope is handed to the handler
		// directly, as the read loop would.
		id := c.nextToken.Add(1)
		sub := newSubscription(c, "/rec/#", len(run)/topiclog.HeaderLen+1)
		sub.replay = &replayState{id: id, pattern: "/rec/#", live: make(chan struct{})}
		sub.replay.lastSeq.Store(last)
		c.mu.Lock()
		c.subSet[sub] = struct{}{}
		c.replays[id] = sub
		c.mu.Unlock()
		defer func() { _ = c.Unsubscribe(sub) }()
		corrupt := c.replayCorrupt.Load()
		c.handleReplayData(replayDataEvent(id, run))

		got, _ := sub.tryRecvBatch(nil, len(want)+1)
		if len(got) != len(want) {
			t.Fatalf("delivered %d records, want %d", len(got), len(want))
		}
		for i, e := range got {
			if e.ID != want[i].ID || e.Topic != want[i].Topic || !bytes.Equal(e.Payload, want[i].Payload) {
				t.Fatalf("record %d: delivered id %d topic %q, want id %d topic %q", i, e.ID, e.Topic, want[i].ID, want[i].Topic)
			}
		}
		if ended := errors.Is(sub.Err(), topiclog.ErrCorrupt); ended != damaged {
			t.Fatalf("damaged %v but the subscription ended with %v", damaged, sub.Err())
		}
		if d := c.replayCorrupt.Load() - corrupt; (d == 1) != damaged || d > 1 {
			t.Fatalf("damaged %v but client.replay_corrupt moved by %d", damaged, d)
		}
	})
}

// frameCounter is a FrameConn that keeps nothing it is handed (the
// FrameConn contract): it counts writes, frames and bytes and drops
// them. With err set, every write fails with it and counts nothing.
type frameCounter struct {
	*captureConn
	sends, frames, bytes int
	err                  error
}

func (c *frameCounter) SendFrames(frames [][]byte) error {
	if c.err != nil {
		return c.err
	}
	c.sends++
	c.frames += len(frames)
	for _, f := range frames {
		c.bytes += len(f)
	}
	return nil
}

// rigWriter gives a rig session a frame sink over a frameCounter and
// returns a writer pool to drain it with: wp.service(s, nil) is one
// writer service, flushing each batch that carried a reliable item and
// advancing the session's flushed mark as the pool goroutine does.
func rigWriter(s *session) (*writerPool, *frameCounter) {
	fc := &frameCounter{captureConn: newCaptureConn()}
	s.sink = &frameSink{bw: transport.NewBatcher(fc, 0)}
	return newWriterPool(s.b), fc
}

// pumpOne sends the rig's next history envelope, in a buffer of its own.
func pumpOne(tb testing.TB, s *session, sr *sessionReplay) {
	tb.Helper()
	if _, progressed, err := s.pumpHistory(sr, nil); err != nil || !progressed {
		tb.Fatalf("pump step: progressed %v err %v", progressed, err)
	}
}

// TestEnvelopeRecycleNeedsOneSend: an acknowledged envelope that was
// retransmitted keeps its buffer out of the pool — the retransmission
// put a second reference to its frame on the send queue — while one
// sent once and flushed, acknowledged by the same ack, goes back.
func TestEnvelopeRecycleNeedsOneSend(t *testing.T) {
	s, sr := replayRig(t, 2_000, 1200)
	wp, fc := rigWriter(s)
	pumpOne(t, s, sr) // rseq 1
	if s.retransmit(time.Now().Add(time.Hour), time.Second, 8) {
		t.Fatal("retransmit asked to close the session on a first retry")
	}
	if got := s.window.at(0).attempts; got != 2 {
		t.Fatalf("rseq 1 has %d attempts after a retransmit, want 2", got)
	}
	pumpOne(t, s, sr) // rseq 2
	wp.service(s, nil)
	if fc.frames != 3 || s.relFlushed.Load() != 2 {
		t.Fatalf("writer flushed %d frames up to rseq %d, want 3 up to 2", fc.frames, s.relFlushed.Load())
	}
	before := s.b.ctr.recycled.Value()
	s.handleAck(2)
	if d := s.b.ctr.recycled.Value() - before; d != 1 {
		t.Fatalf("acking a retransmitted and a once-sent envelope recycled %d buffers, want 1", d)
	}
}

// TestEnvelopeRecycleNeedsFlush: the cumulative ack is clamped only to
// nextRSeq, so a remote may ack an envelope the writer never flushed;
// that buffer stays out of the pool. The rig's session has no running
// writer until one is given to it, and then only what it flushed goes
// back.
func TestEnvelopeRecycleNeedsFlush(t *testing.T) {
	s, sr := replayRig(t, 2_000, 1200)
	pumpOne(t, s, sr) // rseq 1, queued and never flushed
	s.handleAck(s.nextRSeq)
	if n := s.b.ctr.recycled.Value(); n != 0 {
		t.Fatalf("an ack for an unflushed envelope recycled %d buffers", n)
	}
	wp, _ := rigWriter(s)
	pumpOne(t, s, sr) // rseq 2
	wp.service(s, nil)
	pumpOne(t, s, sr) // rseq 3, queued behind the flush
	s.handleAck(s.nextRSeq)
	if n := s.b.ctr.recycled.Value(); n != 1 || s.relFlushed.Load() != 2 {
		t.Fatalf("recycled %d buffers with rseqs up to %d flushed, want 1 (rseq 2)", n, s.relFlushed.Load())
	}
}

// TestEnvelopeRecycleNotAfterSalvage: salvaging a dying session's
// window decodes its envelopes into parked events whose payloads alias
// the frame buffers, and the read loop may still apply an ack after
// that. The ack pops the entries but pools neither buffer, so no pump
// can refill the bytes a resumed session would re-send.
func TestEnvelopeRecycleNotAfterSalvage(t *testing.T) {
	s, sr := replayRig(t, 2_000, 1200)
	wp, _ := rigWriter(s)
	pumpOne(t, s, sr) // rseq 1
	pumpOne(t, s, sr) // rseq 2
	wp.service(s, nil)
	if s.relFlushed.Load() != 2 {
		t.Fatalf("writer flushed up to rseq %d, want 2", s.relFlushed.Load())
	}
	st := s.salvageReliable()
	if len(st.unacked) != 2 {
		t.Fatalf("salvaged %d envelopes, want 2", len(st.unacked))
	}
	s.handleAck(s.nextRSeq)
	if n := s.b.ctr.recycled.Value(); n != 0 {
		t.Fatalf("an ack after salvage recycled %d buffers under the parked events", n)
	}
}

// TestReliableFirstSendsQueueInRSeqOrder: two replay streams on one
// session pump concurrently while control replies race them; every
// first send reaches the reliable lane in rseq order. That order is
// what makes the writer's flushed high-water mark exact.
func TestReliableFirstSendsQueueInRSeqOrder(t *testing.T) {
	s, sr := replayRig(t, 8_000, 1200)
	sr2 := &sessionReplay{id: 8, cur: s.b.TopicLog("/rec/#").NewCursor(0), env: replayDataEvent(8, nil), stop: make(chan struct{})}
	t.Cleanup(sr2.cur.Close)
	var wg sync.WaitGroup
	for _, r := range []*sessionReplay{sr, sr2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, progressed, err := s.pumpHistory(r, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if !progressed {
					return
				}
			}
		}()
	}
	const repliers, replies = 4, 250
	for range repliers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range replies {
				s.sendReliable(replayReplyEvent(repOK, 9, ""))
			}
		}()
	}
	wg.Wait()
	var last uint64
	for s.queue.depth() > 0 {
		it, st := popOne(s.queue)
		if st != popOK || it.frame == nil {
			t.Fatalf("after rseq %d: no frame-backed reliable item (state %v)", last, st)
		}
		if r := it.frame.RSeq(); r != last+1 {
			t.Fatalf("rseq %d reached the lane after rseq %d", r, last)
		}
		last++
	}
	if last != s.nextRSeq || last < repliers*replies+2*100 {
		t.Fatalf("lane held rseqs 1..%d of %d", last, s.nextRSeq)
	}
}

// TestReplayEnvelopeRecycleAllocs: in steady state — pump, one writer
// service through the session's frame sink, cumulative ack — every
// envelope's buffer goes back to the pool and the next one comes out
// of it, so an envelope costs one allocation, its Frame.
func TestReplayEnvelopeRecycleAllocs(t *testing.T) {
	s, sr := replayRig(t, 20_000, 1200)
	wp, fc := rigWriter(s)
	step := func() {
		pumpOne(t, s, sr)
		wp.service(s, nil)
		s.handleAck(s.nextRSeq)
	}
	for range 64 {
		step()
	}
	if n := s.b.ctr.recycled.Value(); n != 64 || fc.frames != 64 {
		t.Fatalf("64 envelopes flushed %d frames and recycled %d buffers, want 64 each", fc.frames, n)
	}
	testutil.SkipAllocGateUnderRace(t)
	if got := testing.AllocsPerRun(100, step); got > 1 {
		t.Fatalf("one recycled envelope allocated %.0f times, want <= 1 (Frame)", got)
	}
}

// TestReplayRecycleLossyTCP replays a 20,000-record log over loopback
// TCP through a link that drops some of the broker's frames, so some
// envelopes are retransmitted while the others' buffers recycle under
// the acks. Every record arrives byte-exact, exactly once, in order. A
// buffer recycled while a frame in it is still queued would surface as
// a gap, a duplicate or a failed CRC check (ErrCorrupt): a refill with
// other whole records passes the CRC check, so the test checks the
// records themselves.
func TestReplayRecycleLossyTCP(t *testing.T) {
	b := recordedBroker(t, "/rec/#", Config{retransmitInterval: 20 * time.Millisecond, maxRetransmits: 100})
	payload := func(i int) []byte {
		p := bytes.Repeat([]byte{byte(i)}, 100+i%13*60)
		copy(p, counterPayload(i))
		return p
	}
	const records = 20_000
	batch := make([][]byte, 0, 256)
	for i := 1; i <= records; i++ {
		e := event.New("/rec/a", event.KindData, payload(i))
		e.Source, e.ID = "loss-pub", uint64(i)
		batch = append(batch, event.Marshal(e))
		if len(batch) == cap(batch) || i == records {
			if _, err := b.TopicLog("/rec/#").Append(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	inner, err := transport.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b.Serve(&lossyListener{Listener: inner, profile: transport.LinkProfile{Loss: 0.1, Seed: 11}})
	c, err := Dial(inner.Addr(), "recycle-sub")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.SubscribeReplay(context.Background(), "/rec/#", 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	timeout := time.AfterFunc(60*time.Second, func() { _ = s.Cancel() })
	defer timeout.Stop()
	next := 1
	buf := make([]*event.Event, 0, 256)
	for next <= records {
		var ok bool
		buf, ok = s.RecvBatch(buf[:0], 256)
		for _, e := range buf {
			if !bytes.Equal(e.Payload, payload(next)) {
				t.Fatalf("position %d got %.8q (%d bytes): duplicate, gap or damage", next, e.Payload, len(e.Payload))
			}
			next++
		}
		if !ok {
			t.Fatalf("replay ended at %d of %d: %v", next-1, records, s.Err())
		}
	}
	if b.ctr.retransmits.Value() == 0 || b.ctr.recycled.Value() == 0 {
		t.Fatalf("retransmits %d, recycled buffers %d: the run exercised neither side of the rule",
			b.ctr.retransmits.Value(), b.ctr.recycled.Value())
	}
}

// TestReplayPumpStopsAtInflightCap: a pump sends while at most
// replayMaxInflight reliable events are unacknowledged, checking before
// each envelope, so with no acks it stops one envelope past the cap and
// stays there. A cumulative ack frees the window and the next poll
// fills it again.
func TestReplayPumpStopsAtInflightCap(t *testing.T) {
	s, sr := replayRig(t, 4_000, 1200)
	sent := func() uint64 {
		s.relMu.Lock()
		defer s.relMu.Unlock()
		return s.nextRSeq
	}
	s.wg.Add(1)
	go s.replayPump(sr)
	defer func() {
		close(sr.stop)
		s.wg.Wait()
	}()
	const full = replayMaxInflight + 1
	waitFor(t, 5*time.Second, func() bool { return sent() == full }, "pump never filled its window")
	time.Sleep(20 * replayBackoff)
	if n, u := sent(), s.unackedLen(); n != full || u != full {
		t.Fatalf("with no acks the pump sent %d envelopes, %d unacked, want %d", n, u, full)
	}
	s.handleAck(full)
	waitFor(t, 5*time.Second, func() bool { return sent() == 2*full }, "pump never resumed after the ack")
	time.Sleep(20 * replayBackoff)
	if n, u := sent(), s.unackedLen(); n != 2*full || u != full {
		t.Fatalf("after one ack the pump sent %d envelopes, %d unacked, want %d and %d", n, u, 2*full, full)
	}
}

// TestReplayPassesContiguousAcrossSegmentEnds: a live publisher appends
// reliable records of varying size to a log that rolls every 64 KiB, so
// history envelopes end short at segment ends all the time, while two
// joiners replay it from 0 over loopback TCP, pass after pass, until the
// log has rolled 100 times. Every pass runs from record 1 through the
// hand-off to live delivery, each record exactly once, in order and
// byte-exact.
func TestReplayPassesContiguousAcrossSegmentEnds(t *testing.T) {
	b := recordedBroker(t, "/rec/#", Config{RecordSegmentBytes: 64 << 10})
	l, err := b.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	log := b.TopicLog("/rec/#")
	payload := func(i int) []byte {
		p := bytes.Repeat([]byte{byte(i)}, 1500+i*389%3000)
		copy(p, counterPayload(i))
		return p
	}
	dial := func(id string) *Client {
		c, err := Dial(l.Addr(), id)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	pub := dial("seg-pub")

	// pass replays the log from 0 until it has read every record
	// committed when it started and gone live, then cancels and checks
	// what is still buffered.
	pass := func(c *Client) error {
		target := int(log.NextSeq()) - 1
		s, err := c.SubscribeReplay(context.Background(), "/rec/#", 0, 256)
		if err != nil {
			return err
		}
		next, cancelled := 1, false
		buf := make([]*event.Event, 0, 64)
		deadline := time.Now().Add(30 * time.Second)
		for {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			buf, err = s.RecvBatchContext(ctx, buf[:0], 64)
			cancel()
			for _, e := range buf {
				if !bytes.Equal(e.Payload, payload(next)) {
					return fmt.Errorf("position %d got %.8q (%d bytes): duplicate, gap or damage", next, e.Payload, len(e.Payload))
				}
				next++
			}
			switch {
			case errors.Is(err, ErrSubscriptionClosed):
				if !cancelled {
					return fmt.Errorf("replay ended at %d: %v", next-1, s.Err())
				}
				return nil
			case err != nil && !errors.Is(err, context.DeadlineExceeded):
				return err
			case time.Now().After(deadline):
				return fmt.Errorf("pass stuck at %d of %d", next-1, target)
			}
			if !cancelled && next > target {
				select {
				case <-s.CaughtUp():
					if err := s.Cancel(); err != nil {
						return err
					}
					cancelled = true
				default:
				}
			}
		}
	}

	const rolls = 100
	done := make(chan struct{})
	go func() {
		defer close(done)
		deadline := time.Now().Add(30 * time.Second)
		for i := 1; log.Stats().Segments <= rolls; i++ {
			if err := pub.PublishReliable("/rec/a", event.KindData, payload(i)); err != nil {
				t.Errorf("publish %d: %v", i, err)
				return
			}
			if i%4 == 0 {
				time.Sleep(3 * time.Millisecond)
			}
			if time.Now().After(deadline) {
				t.Errorf("log rolled %d times in 30s, want %d", log.Stats().Segments-1, rolls)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	passes := make([]int, 2)
	for j := range passes {
		c := dial("seg-sub-" + strconv.Itoa(j))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := pass(c); err != nil {
					t.Errorf("joiner %d, pass %d: %v", j, passes[j]+1, err)
					return
				}
				passes[j]++
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	<-done
	t.Logf("log rolled %d times; the joiners made %v passes", log.Stats().Segments-1, passes)
	for j, n := range passes {
		if n < 2 {
			t.Errorf("joiner %d made %d passes while the log rolled, want at least 2", j, n)
		}
	}
}

// BenchmarkReplayEnvelope is the replay lane's rung: cursor read →
// frame build → rseq stamp → enqueue → writer flush → cumulative ack
// (which recycles the buffer) for 1200-byte records on a framed
// session, one op per ~64 KiB envelope.
func BenchmarkReplayEnvelope(b *testing.B) {
	const records = 40_000
	s, sr := replayRig(b, records, 1200)
	wp, _ := rigWriter(s)
	log := s.b.TopicLog("/rec/#")
	b.SetBytes(int64(replayEnvelopeTarget - replayHeadroom - event.RSeqSlotLen))
	b.ReportAllocs()
	b.ResetTimer()
	defer func() { sr.cur.Close() }() // the rig only knows the first cursor
	var buf []byte
	for i := 0; i < b.N; i++ {
		var progressed bool
		var err error
		if buf, progressed, err = s.pumpHistory(sr, buf); err != nil {
			b.Fatal(err)
		}
		if !progressed { // end of the log: start over
			sr.cur.Close()
			sr.cur = log.NewCursor(0)
			i--
			continue
		}
		wp.service(s, nil)
		s.handleAck(s.nextRSeq)
	}
}
