package broker

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/topiclog"
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
		ReliableWindow: 1 << 20,
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
	it, st := s.queue.tryPop()
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
		_, rec, n, err := topiclog.ParseRecord(payload, 0)
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
		it, st := s.queue.tryPop()
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
	first, st := s.queue.tryPop()
	if st != popOK || first.frame == nil || first.frame.RSeq() != 42 {
		t.Fatalf("first send: state %v frame %v", st, first.frame)
	}
	sent := bytes.Clone(first.frame.Bytes())

	if s.retransmit(time.Now().Add(time.Hour), time.Second, 8) {
		t.Fatal("retransmit asked to close a session on its first retry")
	}
	again, st := s.queue.tryPop()
	if st != popOK || again.frame != first.frame || !bytes.Equal(again.frame.Bytes(), sent) {
		t.Fatalf("retransmission is not the frame first sent (state %v)", st)
	}
}

// TestReplayEnvelopeAllocs gates the lane's allocation budget on a
// framed session: one history envelope costs the frame buffer, the
// Frame and the window entry; one tail batch costs the same three.
// Nothing is popped or acked while measuring, so the send queue's and
// the window's own (amortized, sub-unit) growth is all that rides along.
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
	if got := testing.AllocsPerRun(50, step); got > 3 {
		t.Fatalf("one history envelope allocated %.0f times, want <= 3 (buffer, Frame, relEntry)", got)
	}

	batch := make([]byte, 0, 8*1300)
	for seq := uint64(1); seq <= 8; seq++ {
		batch = topiclog.AppendRecord(batch, seq, make([]byte, 1270))
	}
	if got := testing.AllocsPerRun(50, func() { s.deliverTail(sr, batch) }); got > 3 {
		t.Fatalf("one tail batch allocated %.0f times, want <= 3 (buffer, Frame, relEntry)", got)
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
	if n := c.ReplayCorrupt(); n != 1 {
		t.Fatalf("client.replay_corrupt = %d, want 1", n)
	}
}

// BenchmarkReplayEnvelope is the replay lane's rung: cursor read →
// frame build → rseq stamp → enqueue for 1200-byte records on a framed
// session, one op per ~64 KiB envelope.
func BenchmarkReplayEnvelope(b *testing.B) {
	const records = 40_000
	s, sr := replayRig(b, records, 1200)
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
		if _, st := s.queue.tryPop(); st != popOK {
			b.Fatal("no envelope queued")
		}
		s.handleAck(s.nextRSeq)
	}
}
