package broker

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// recordedBroker starts a broker recording pattern into a temp dir.
func recordedBroker(t *testing.T, pattern string, cfg Config) *Broker {
	t.Helper()
	cfg.ID = "rec-b1"
	cfg.RecordPatterns = []string{pattern}
	cfg.RecordDir = t.TempDir()
	return newTestBrokerCfg(t, cfg)
}

// waitRecorded blocks until the pattern's log has committed n records.
func waitRecorded(t *testing.T, b *Broker, pattern string, n uint64) {
	t.Helper()
	l := b.TopicLog(pattern)
	if l == nil {
		t.Fatalf("no topic log for %q", pattern)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.NextSeq() < n+1 {
		if time.Now().After(deadline) {
			t.Fatalf("log reached seq %d, want %d", l.NextSeq()-1, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func counterPayload(i int) []byte { return []byte(fmt.Sprintf("%08d", i)) }

// TestRecordingCapturesRoutedEvents publishes through a client and
// checks the durable log holds exactly the routed events — decodable,
// in publish order, even with zero live subscribers — and that
// non-matching topics stay out of the log.
func TestRecordingCapturesRoutedEvents(t *testing.T) {
	b := recordedBroker(t, "/rec/#", Config{})
	pub := localClient(t, b, "pub")

	const n = 100
	for i := 1; i <= n; i++ {
		if err := pub.Publish("/rec/a", event.KindData, counterPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Publish("/other/a", event.KindData, []byte("not recorded")); err != nil {
		t.Fatal(err)
	}
	waitRecorded(t, b, "/rec/#", n)

	l := b.TopicLog("/rec/#")
	time.Sleep(20 * time.Millisecond) // window for any stray append
	if got := l.NextSeq() - 1; got != n {
		t.Fatalf("log holds %d records, want %d", got, n)
	}
	c := l.NewCursor(0)
	defer c.Close()
	var seq uint64
	for {
		recs, err := c.Next(nil, 32)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		for _, r := range recs {
			seq++
			if r.Seq != seq {
				t.Fatalf("record seq %d, want %d", r.Seq, seq)
			}
			e, err := event.Unmarshal(r.Payload)
			if err != nil {
				t.Fatalf("record %d does not decode: %v", r.Seq, err)
			}
			if e.Topic != "/rec/a" || string(e.Payload) != string(counterPayload(int(seq))) {
				t.Fatalf("record %d decoded to %q %q", r.Seq, e.Topic, e.Payload)
			}
		}
	}
	if seq != n {
		t.Fatalf("cursor yielded %d records, want %d", seq, n)
	}
}

// TestReplayLateJoinerExactlyOnce is the handoff acceptance test: a
// joiner subscribing mid-stream replays history (across segment rolls)
// and switches to live delivery with every event delivered exactly
// once, in order, and CaughtUp closing at the handoff.
func TestReplayLateJoinerExactlyOnce(t *testing.T) {
	b := recordedBroker(t, "/rec/#", Config{RecordSegmentBytes: 4096})
	pub := localClient(t, b, "pub")
	sub := localClient(t, b, "sub")

	const history = 500
	const concurrent = 500
	for i := 1; i <= history; i++ {
		if err := pub.Publish("/rec/a", event.KindData, counterPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitRecorded(t, b, "/rec/#", history)
	if segs := b.TopicLog("/rec/#").Stats().Segments; segs < 2 {
		t.Fatalf("setup: want replay to cross segments, got %d", segs)
	}

	s, err := sub.SubscribeReplay(context.Background(), "/rec/#", 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	// Publish concurrently with the replay drain so the handoff races
	// real traffic.
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		for i := history + 1; i <= history+concurrent; i++ {
			if err := pub.Publish("/rec/a", event.KindData, counterPayload(i)); err != nil {
				t.Errorf("publish: %v", err)
				return
			}
		}
	}()

	want := history + concurrent + 1
	var got []string
	deadline := time.Now().Add(10 * time.Second)
	for len(got) < want {
		e, err := recvWithin(s, time.Until(deadline))
		if errors.Is(err, ErrSubscriptionClosed) {
			t.Fatal("replay subscription closed early")
		}
		if err != nil {
			t.Fatalf("timed out with %d/%d events", len(got), want)
		}
		got = append(got, string(e.Payload))
		if len(got) == history+concurrent {
			// Everything published so far is in; one more event proves
			// live delivery after the writer finished.
			<-pubDone
			if err := pub.Publish("/rec/a", event.KindData, counterPayload(want)); err != nil {
				t.Fatal(err)
			}
		}
	}
	select {
	case <-s.CaughtUp():
	case <-time.After(5 * time.Second):
		t.Fatal("CaughtUp never closed")
	}
	for i, p := range got {
		if p != string(counterPayload(i+1)) {
			t.Fatalf("position %d got %q, want %q: duplicate or gap across handoff", i, p, counterPayload(i+1))
		}
	}
	if err := sub.Unsubscribe(s); err != nil {
		t.Fatal(err)
	}
}

// TestReplayFromSequence starts mid-log and checks the first delivered
// event is exactly the requested sequence.
func TestReplayFromSequence(t *testing.T) {
	b := recordedBroker(t, "/rec/#", Config{})
	pub := localClient(t, b, "pub")
	sub := localClient(t, b, "sub")
	const n = 100
	for i := 1; i <= n; i++ {
		if err := pub.Publish("/rec/a", event.KindData, counterPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitRecorded(t, b, "/rec/#", n)
	s, err := sub.SubscribeReplay(context.Background(), "/rec/#", 51, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 51; i <= n; i++ {
		e := recvOne(t, s, 2*time.Second)
		if string(e.Payload) != string(counterPayload(i)) {
			t.Fatalf("got %q, want %q", e.Payload, counterPayload(i))
		}
	}
	select {
	case <-s.CaughtUp():
	case <-time.After(5 * time.Second):
		t.Fatal("CaughtUp never closed")
	}
}

// TestReplayUnknownPatternFails covers the error paths: a pattern the
// broker does not record, and a broker with recording off entirely.
func TestReplayUnknownPatternFails(t *testing.T) {
	b := recordedBroker(t, "/rec/#", Config{})
	c := localClient(t, b, "c1")
	if _, err := c.SubscribeReplay(context.Background(), "/other/#", 0, 16); err == nil {
		t.Fatal("replay of unrecorded pattern succeeded")
	}
	// Replay must name the recorded pattern itself, not a topic under it.
	if _, err := c.SubscribeReplay(context.Background(), "/rec/a", 0, 16); err == nil {
		t.Fatal("replay of non-pattern topic succeeded")
	}

	plain := newTestBroker(t, "plain-b1")
	c2 := localClient(t, plain, "c2")
	if _, err := c2.SubscribeReplay(context.Background(), "/rec/#", 0, 16); err == nil {
		t.Fatal("replay on non-recording broker succeeded")
	}
}

// TestReplayChurnUnderLoad opens and tears down replay subscriptions —
// some unsubscribed mid-history, some abandoned by client close —
// while a publisher keeps appending, then checks every broker-side
// cursor is released. Run under -race in CI.
func TestReplayChurnUnderLoad(t *testing.T) {
	b := recordedBroker(t, "/rec/#", Config{RecordSegmentBytes: 8192, RecordMaxSegments: 8})
	pub := localClient(t, b, "pub")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			if err := pub.Publish("/rec/a", event.KindData, counterPayload(i)); err != nil {
				return
			}
		}
	}()
	waitRecorded(t, b, "/rec/#", 100)

	for round := 0; round < 10; round++ {
		c, err := b.LocalClient(fmt.Sprintf("churn-%d", round), transport.LinkProfile{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := c.SubscribeReplay(context.Background(), "/rec/#", 0, 64)
		if err != nil {
			c.Close()
			t.Fatal(err)
		}
		// Drain a little of the history, then tear down mid-replay.
		for k := 0; k < 20; k++ {
			recvOne(t, s, 2*time.Second)
		}
		if round%2 == 0 {
			if err := c.Unsubscribe(s); err != nil {
				t.Fatal(err)
			}
		}
		c.Close() // abandon (odd rounds: with the replay still active)
	}
	close(stop)
	wg.Wait()

	// Every cursor must be released once the sessions are gone.
	l := b.TopicLog("/rec/#")
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().ActiveCursors != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d cursors leaked", l.Stats().ActiveCursors)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRecordingRetentionUnderReplay runs retention caps against an
// active replay and checks the reader still sees a contiguous,
// gap-free suffix of the stream (retention may trim history before the
// cursor starts, never under it).
func TestRecordingRetentionUnderReplay(t *testing.T) {
	b := recordedBroker(t, "/rec/#", Config{
		RecordSegmentBytes: 2048,
		RecordMaxSegments:  3,
		advRefreshInterval: 50 * time.Millisecond, // housekeeping reaps fast
	})
	pub := localClient(t, b, "pub")
	sub := localClient(t, b, "sub")

	// Publish in paced chunks: a chunk per append keeps segments small
	// (one burst-append never splits across segments), so retention has
	// segment granularity to work with.
	const n = 600
	for i := 1; i <= n; i++ {
		if err := pub.Publish("/rec/a", event.KindData, counterPayload(i)); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			waitRecorded(t, b, "/rec/#", uint64(i))
		}
	}
	waitRecorded(t, b, "/rec/#", n)
	l := b.TopicLog("/rec/#")
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Segments > 3 {
		if time.Now().After(deadline) {
			t.Fatalf("retention never enforced: %+v", l.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	s, err := sub.SubscribeReplay(context.Background(), "/rec/#", 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for {
		e, err := recvWithin(s, 5*time.Second)
		if err != nil {
			t.Fatalf("stalled after %d replayed events", len(got))
		}
		var v int
		fmt.Sscanf(string(e.Payload), "%d", &v)
		got = append(got, v)
		if v == n {
			break
		}
	}
	if len(got) == 0 || got[0] == 1 {
		t.Fatalf("expected a trimmed suffix, got start %v (len %d)", got[:min(3, len(got))], len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[i-1]+1 {
			t.Fatalf("gap in replayed suffix at %d: %d -> %d", i, got[i-1], got[i])
		}
	}
}
