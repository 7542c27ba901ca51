package broker

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
)

func qe(id uint64) *event.Event {
	return &event.Event{ID: id, Topic: "/q", Kind: event.KindData}
}

// popOne pops at most one item without blocking.
func popOne(q *sendQueue) (outItem, popState) {
	buf, st := q.popBatch(nil, 1)
	if len(buf) == 0 {
		return outItem{}, st
	}
	return buf[0], st
}

// popID pops one item without blocking and returns its event's ID.
func popID(t *testing.T, q *sendQueue) uint64 {
	t.Helper()
	it, st := popOne(q)
	if st != popOK {
		t.Fatalf("popOne = %v, want an item", st)
	}
	return it.e.ID
}

func TestSendQueueFIFO(t *testing.T) {
	q := newSendQueue(8)
	for i := range 5 {
		q.pushBestEffort(qe(uint64(i)), nil)
	}
	for i := range 5 {
		if id := popID(t, q); id != uint64(i) {
			t.Fatalf("pop %d = id %d", i, id)
		}
	}
}

func TestSendQueueDropOldest(t *testing.T) {
	q := newSendQueue(3)
	for i := range 5 {
		q.pushBestEffort(qe(uint64(i)), nil)
	}
	if q.dropCount() != 2 {
		t.Fatalf("drops = %d, want 2", q.dropCount())
	}
	// Oldest two (0,1) dropped; expect 2,3,4.
	for _, want := range []uint64{2, 3, 4} {
		if id := popID(t, q); id != want {
			t.Fatalf("pop = id %d; want id %d", id, want)
		}
	}
}

func TestSendQueueReliablePriority(t *testing.T) {
	q := newSendQueue(8)
	q.pushBestEffort(qe(1), nil)
	q.pushReliable(qe(100))
	if id := popID(t, q); id != 100 {
		t.Fatalf("pop = %d, want reliable event 100 first", id)
	}
	if id := popID(t, q); id != 1 {
		t.Fatalf("pop = %d, want best-effort 1 second", id)
	}
}

func TestSendQueueReliableNeverDropped(t *testing.T) {
	q := newSendQueue(1)
	for i := range 100 {
		q.pushReliable(qe(uint64(i)))
	}
	if q.depth() != 100 {
		t.Fatalf("depth = %d, want 100", q.depth())
	}
	if q.dropCount() != 0 {
		t.Fatalf("drops = %d, want 0", q.dropCount())
	}
}

func TestSendQueueCloseDrains(t *testing.T) {
	q := newSendQueue(4)
	q.pushBestEffort(qe(1), nil)
	q.close()
	if id := popID(t, q); id != 1 {
		t.Fatalf("pop after close = id %d; want queued event 1", id)
	}
	if _, st := popOne(q); st != popClosed {
		t.Fatalf("pop after drain = %v, want closed", st)
	}
}

func TestSendQueuePushAfterCloseIgnored(t *testing.T) {
	q := newSendQueue(4)
	q.close()
	if q.pushBestEffort(qe(1), nil) {
		t.Fatal("push accepted after close")
	}
	q.pushReliable(qe(2))
	if _, st := popOne(q); st != popClosed {
		t.Fatal("event queued after close")
	}
}

func TestSendQueueConcurrentProducersConsumer(t *testing.T) {
	q := newSendQueue(100000)
	// Stand in for the writer pool: one wakeup token, armed by onSignal.
	wake := make(chan struct{}, 1)
	q.onSignal = func() bool {
		select {
		case wake <- struct{}{}:
			return true
		default:
			return false
		}
	}
	const producers, per = 8, 1000
	var wg sync.WaitGroup
	for range producers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range per {
				q.pushBestEffort(qe(uint64(i)), nil)
			}
		}()
	}
	received := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]outItem, 0, 64)
		for received < producers*per {
			var st popState
			buf, st = q.popBatch(buf[:0], 64)
			switch st {
			case popOK:
				received += len(buf)
			case popClosed:
				return
			default:
				<-wake
			}
		}
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("consumer stalled at %d", received)
	}
	if received != producers*per {
		t.Fatalf("received %d, want %d", received, producers*per)
	}
}

// BenchmarkSendQueue is the send queue's rung of the benchmark ladder,
// one sub-benchmark per lane. best-effort: a 256- and a 128-item burst
// into the default 512-deep lane, drained by two maxBurst popBatch
// calls, so successive ops wrap the ring. reliable: 64 pushItem calls
// drained by one popBatch.
func BenchmarkSendQueue(b *testing.B) {
	b.Run("best-effort", func(b *testing.B) {
		q := newSendQueue(512)
		items := make([]outItem, 256)
		for i := range items {
			items[i] = outItem{e: burstEvent(uint64(i+1), "/be/bench")}
		}
		buf := make([]outItem, 0, maxBurst)
		b.ReportAllocs()
		for b.Loop() {
			q.pushBatch(items)
			q.pushBatch(items[:128])
			buf, _ = q.popBatch(buf[:0], maxBurst)
			buf, _ = q.popBatch(buf[:0], maxBurst)
		}
	})
	b.Run("reliable", func(b *testing.B) {
		q := newSendQueue(512)
		it := outItem{e: burstEvent(1, "/rel/bench"), reliable: true}
		buf := make([]outItem, 0, 64)
		b.ReportAllocs()
		for b.Loop() {
			for range 64 {
				q.pushItem(it)
			}
			buf, _ = q.popBatch(buf[:0], 64)
		}
	})
}

func TestDedupCache(t *testing.T) {
	d := newDedupCache(3)
	k := func(s string, i uint64) event.Key { return event.Key{Source: s, ID: i} }
	if d.seen(k("a", 1)) {
		t.Fatal("fresh key reported seen")
	}
	if !d.seen(k("a", 1)) {
		t.Fatal("repeated key not reported seen")
	}
	// Out-of-order first arrivals within the window are all fresh, and
	// each repeats as seen.
	for _, id := range []uint64{5, 3, 4, 2} {
		if d.seen(k("a", id)) {
			t.Fatalf("fresh in-window id %d reported seen", id)
		}
		if !d.seen(k("a", id)) {
			t.Fatalf("repeated id %d not reported seen", id)
		}
	}
	// An ID that has fallen below the window is assumed to be a late
	// loop copy.
	d.seen(k("a", dedupWindow+10))
	if !d.seen(k("a", 9)) {
		t.Fatal("below-window id not treated as duplicate")
	}
	// A window jump beyond the full width clears stale bits: the new ID
	// is seen once, its alias from the previous lap is not resurrected.
	if d.seen(k("a", 3*dedupWindow+10)) {
		t.Fatal("fresh id after window jump reported seen")
	}
	if d.seen(k("a", 3*dedupWindow+9)) {
		t.Fatal("pre-jump lap alias survived the window jump")
	}
	// Sources are independent; capacity 3 evicts the oldest source.
	if d.seen(k("b", 1)) {
		t.Fatal("fresh source reported seen")
	}
	d.seen(k("c", 1))
	d.seen(k("d", 1))
	if !d.seen(k("b", 1)) {
		t.Fatal("retained source lost its window")
	}
	if d.seen(k("a", 3*dedupWindow+10)) {
		t.Fatal("evicted source still reported seen")
	}
	if d.len() > 3 {
		t.Fatalf("cache tracks %d sources, capacity 3", d.len())
	}
}

func TestDedupCacheConcurrent(t *testing.T) {
	d := newDedupCache(1024)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 1000 {
				d.seen(event.Key{Source: fmt.Sprintf("s%d", g), ID: uint64(i + 1)})
			}
		}()
	}
	wg.Wait()
	if d.len() > 1024 {
		t.Fatalf("cache exceeded capacity: %d", d.len())
	}
}
