package broker

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/testutil"
)

// roomsRig is the rooms-flood shape at the route sweep: 32 room topics,
// each with 4 framed subscriber sessions, and a 128-event burst that
// walks the rooms round-robin with a 172-byte PCMU-sized payload.
// Sessions are hand-attached (no goroutines), so only the sweep touches
// their queues; drain empties them between bursts.
type roomsRig struct {
	b        *Broker
	sweep    *routeSweep
	sessions []*session
	burst    []*event.Event
	popped   []outItem
}

func newRoomsRig(tb testing.TB) *roomsRig {
	const rooms, listeners, burst = 32, 4, 128
	r := &roomsRig{b: New(Config{ID: "rooms-rig"})}
	tb.Cleanup(r.b.Stop)
	topics := make([]string, rooms)
	for k := range topics {
		topics[k] = fmt.Sprintf("/bench/room/%d/audio", k)
		for l := 0; l < listeners; l++ {
			s := newSession(r.b, newCaptureConn(), fmt.Sprintf("room-%d-sub-%d", k, l), false)
			if err := r.b.subs.Add(topics[k], s); err != nil {
				tb.Fatal(err)
			}
			r.sessions = append(r.sessions, s)
		}
	}
	payload := bytes.Repeat([]byte{0xd5}, 172)
	for i := 0; i < burst; i++ {
		e := event.New(topics[i%rooms], event.KindRTP, payload)
		e.Source, e.ID = "rooms-pub", uint64(i+1)
		r.burst = append(r.burst, e)
	}
	r.sweep = r.b.newRouteSweep()
	return r
}

func (r *roomsRig) drain() {
	for _, s := range r.sessions {
		r.popped, _ = s.queue.popBatch(r.popped[:0], len(r.burst))
	}
	clear(r.popped)
}

func BenchmarkRouteBatch(b *testing.B) {
	r := newRoomsRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		r.sweep.routeBatch(r.burst, nil)
		r.drain()
	}
}

// TestRouteBatchAllocs gates the sweep's allocation budget: the
// frameSource slabs and the frame arena are the only things a routed
// burst allocates, so a 128-event burst fanned out to framed sessions
// costs a handful of allocations, not three per event.
func TestRouteBatchAllocs(t *testing.T) {
	testutil.SkipAllocGateUnderRace(t)
	r := newRoomsRig(t)
	got := testing.AllocsPerRun(100, func() {
		r.sweep.routeBatch(r.burst, nil)
		r.drain()
	})
	if got > 4 {
		t.Fatalf("routeBatch allocated %.2f times per %d-event burst, want <= 4", got, len(r.burst))
	}
}

// TestReliableLaneAllocs: the reliable lane is a ring, so a session
// that sends and drains one reliable item at a time reuses one slot
// instead of walking (and regrowing) a slice.
func TestReliableLaneAllocs(t *testing.T) {
	testutil.SkipAllocGateUnderRace(t)
	q := newSendQueue(8)
	it := outItem{e: burstEvent(1, "/rel/ring"), reliable: true}
	buf := make([]outItem, 0, 1)
	got := testing.AllocsPerRun(1, func() {
		for i := 0; i < 10_000; i++ {
			q.pushItem(it)
			var st popState
			if buf, st = q.popBatch(buf[:0], 1); st != popOK {
				t.Fatal("reliable item not returned")
			}
		}
	})
	if got != 0 {
		t.Fatalf("%.0f allocations over 10k reliable push/pop rounds, want 0", got)
	}
}

// TestBestEffortBatchAllocs: a full best-effort burst handed through the
// queue — one pushBatch, one popBatch into a reused buffer — allocates
// nothing.
func TestBestEffortBatchAllocs(t *testing.T) {
	testutil.SkipAllocGateUnderRace(t)
	q := newSendQueue(maxBurst)
	items := make([]outItem, maxBurst)
	for i := range items {
		items[i] = outItem{e: burstEvent(uint64(i+1), "/be/ring")}
	}
	buf := make([]outItem, 0, maxBurst)
	got := testing.AllocsPerRun(100, func() {
		if dropped := q.pushBatch(items); dropped != 0 {
			t.Fatalf("%d items dropped from an empty %d-deep lane", dropped, maxBurst)
		}
		var st popState
		if buf, st = q.popBatch(buf[:0], maxBurst); st != popOK || len(buf) != maxBurst {
			t.Fatalf("popBatch = %d items, %v; want %d", len(buf), st, maxBurst)
		}
	})
	if got != 0 {
		t.Fatalf("%.0f allocations per %d-item pushBatch/popBatch, want 0", got, maxBurst)
	}
}

// TestSweepMemoSeesMutations: a sweep's route memo persists across
// bursts, and every hit revalidates against the trie shard's epoch — a
// removed pattern stops its delivery, a memoised topic it does not match
// keeps delivering, and a wildcard-first pattern joins every topic.
func TestSweepMemoSeesMutations(t *testing.T) {
	b := New(Config{ID: "sweep-memo"})
	defer b.Stop()
	s1 := newSession(b, newCaptureConn(), "memo-s1", false)
	for _, p := range []string{"/a/one", "/b/keep"} {
		if err := b.subs.Add(p, s1); err != nil {
			t.Fatal(err)
		}
	}
	rs := b.newRouteSweep()
	var id uint64
	burst := func() {
		var events []*event.Event
		for _, topic := range []string{"/a/one", "/b/keep"} {
			id++
			events = append(events, burstEvent(id, topic))
		}
		rs.routeBatch(events, nil)
	}
	topics := func(s *session) string {
		items, _ := s.queue.popBatch(nil, 16)
		var got []string
		for _, it := range items {
			got = append(got, it.e.Topic)
		}
		return strings.Join(got, " ")
	}

	burst()
	if got := topics(s1); got != "/a/one /b/keep" {
		t.Fatalf("before any mutation s1 got %q", got)
	}
	b.subs.Remove("/a/one", s1)
	burst()
	if got := topics(s1); got != "/b/keep" {
		t.Fatalf("after removing /a/one s1 got %q, want only /b/keep", got)
	}
	s2 := newSession(b, newCaptureConn(), "memo-s2", false)
	if err := b.subs.Add("/#", s2); err != nil {
		t.Fatal(err)
	}
	burst()
	if got := topics(s1); got != "/b/keep" {
		t.Fatalf("after adding /# s1 got %q, want only /b/keep", got)
	}
	if got := topics(s2); got != "/a/one /b/keep" {
		t.Fatalf("the wildcard-first subscriber got %q, want both topics", got)
	}
}

// TestSweepRecordsOncePerLog: a topic's recorders are resolved when its
// route entry is created and ride along when the entry revalidates —
// each event is appended exactly once to every log whose pattern matches
// it, before and after a subscribe bumps the topic's trie shard.
func TestSweepRecordsOncePerLog(t *testing.T) {
	b := newTestBrokerCfg(t, Config{
		ID:             "sweep-rec",
		RecordPatterns: []string{"/rec/#", "/rec/a/*"},
		RecordDir:      t.TempDir(),
	})
	rs := b.newRouteSweep()
	burst := func(first uint64) {
		var events []*event.Event
		for i, topic := range []string{"/rec/a/x", "/rec/b", "/rec/a/x"} {
			events = append(events, burstEvent(first+uint64(i), topic))
		}
		rs.routeBatch(events, nil)
	}
	burst(1)
	epoch := b.subs.EpochAt(b.subs.ShardFor("/rec/a/x"))
	// Same first segment, so the same trie shard as every recorded topic.
	s := newSession(b, newCaptureConn(), "sweep-rec-sub", false)
	if err := b.subs.Add("/rec/other", s); err != nil {
		t.Fatal(err)
	}
	if b.subs.EpochAt(b.subs.ShardFor("/rec/a/x")) == epoch {
		t.Fatal("the subscribe did not bump the recorded topics' shard")
	}
	burst(4)

	for pattern, want := range map[string]string{
		"/rec/#":   "1 2 3 4 5 6",
		"/rec/a/*": "1 3 4 6",
	} {
		c := b.TopicLog(pattern).NewCursor(0)
		var got []string
		for {
			recs, err := c.Next(nil, 64)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) == 0 {
				break
			}
			for _, r := range recs {
				e, err := event.Unmarshal(r.Payload)
				if err != nil {
					t.Fatalf("%s record %d does not decode: %v", pattern, r.Seq, err)
				}
				got = append(got, fmt.Sprint(e.ID))
			}
		}
		c.Close()
		if g := strings.Join(got, " "); g != want {
			t.Fatalf("%s log holds events %q, want %q", pattern, g, want)
		}
	}
}

// TestQueuedFrameSurvivesLaterBursts: a frame still queued on a session
// nobody drains, long after the sweep that staged it finished, is byte
// for byte what was encoded — later bursts fill fresh slabs and fresh
// arena chunks and never write into the ones a queued item points at.
func TestQueuedFrameSurvivesLaterBursts(t *testing.T) {
	r := newRoomsRig(t)
	slow := r.sessions[0] // a room-0 listener; never drained below
	var want []*event.Event
	for burst := 0; burst < 8; burst++ { // ~240 KB of frames: several arena chunks
		events := make([]*event.Event, len(r.burst))
		for i, e := range r.burst {
			c := *e
			c.ID = uint64(burst*len(r.burst) + i + 1)
			events[i] = &c
			if c.Topic == r.burst[0].Topic {
				want = append(want, &c)
			}
		}
		r.sweep.routeBatch(events, nil)
		for _, s := range r.sessions[1:] {
			r.popped, _ = s.queue.popBatch(r.popped[:0], len(events))
		}
	}
	got, _ := slow.queue.popBatch(nil, len(want)+1)
	if len(got) != len(want) {
		t.Fatalf("slow session holds %d items, want %d", len(got), len(want))
	}
	for i, it := range got {
		if it.e != want[i] {
			t.Fatalf("item %d carries event %d, want %d", i, it.e.ID, want[i].ID)
		}
		if !bytes.Equal(it.frame.Bytes(), event.Marshal(want[i])) {
			t.Fatalf("item %d: the queued frame no longer encodes its event", i)
		}
	}
}

// TestConcurrentLoopbackPublish: Broker.Publish borrows a pooled sweep
// per call, so concurrent callers never share one — every event reaches
// the framed session exactly once, in each publisher's order, with the
// frame that encodes it.
func TestConcurrentLoopbackPublish(t *testing.T) {
	const publishers, each = 4, 100 // 400 items: under the 512-deep lane, nothing is shed
	b := New(Config{ID: "loopback-pool"})
	defer b.Stop()
	s := newSession(b, newCaptureConn(), "loopback-sub", false)
	if err := b.subs.Add("/loopback/t", s); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= each; i++ {
				e := burstEvent(uint64(i), "/loopback/t")
				e.Source = fmt.Sprintf("loopback-pub-%d", p)
				if err := b.Publish(e); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, _ := s.queue.popBatch(nil, publishers*each+1)
	if len(got) != publishers*each {
		t.Fatalf("session holds %d items, want %d", len(got), publishers*each)
	}
	last := make(map[string]uint64)
	for _, it := range got {
		if it.e.ID != last[it.e.Source]+1 {
			t.Fatalf("%s: event %d follows %d", it.e.Source, it.e.ID, last[it.e.Source])
		}
		last[it.e.Source] = it.e.ID
		if !bytes.Equal(it.frame.Bytes(), event.Marshal(it.e)) {
			t.Fatalf("%s #%d: the queued frame does not encode its event", it.e.Source, it.e.ID)
		}
	}
}
