package broker

import (
	"sync/atomic"

	"github.com/globalmmcs/globalmmcs/internal/event"
)

// frameSource lazily encodes one event a single time per route sweep so
// every wire-bound session in the fan-out shares the same immutable
// frame. A derived source (peer TTL decrement) patches the parent's
// frame header instead of re-marshalling, and the reliable plane shares
// a second lazy encoding that carries a trailing patchable rseq slot
// (per-target tagging is then an 8-byte patch on a buffer copy).
//
// Sources are slots of the owning sweep's slab, their frames are
// embedded (a Frame with no bytes is one not encoded yet) and the
// encode-once frames are cut from the sweep's arena, so routing an
// event allocates nothing of its own. Neither slab nor arena is ever
// reused: a queued item's frame pointer keeps its slab, and through it
// the slab's events and arena chunks, reachable and unchanged. Not safe
// for concurrent use.
type frameSource struct {
	e      *event.Event
	rs     *routeSweep
	parent *frameSource
	f      event.Frame
	rf     event.Frame // rseq-slot encoding for the reliable plane
	mf     event.Frame // mask-slot encoding shared by routed peer copies
	ttl    uint8
	mask   uint64
	masked bool
}

// frameSlabLen is how many frameSources one slab allocation holds.
const frameSlabLen = 64

// source returns the next slab slot, bound to e.
func (rs *routeSweep) source(e *event.Event) *frameSource {
	if len(rs.srcs) == 0 {
		rs.srcs = make([]frameSource, frameSlabLen)
	}
	fs := &rs.srcs[0]
	rs.srcs = rs.srcs[1:]
	fs.e, fs.rs = e, rs
	return fs
}

// derive returns a source encoding the same event with a patched TTL.
func (fs *frameSource) derive(ttl uint8) *frameSource {
	d := fs.rs.source(nil)
	d.parent, d.ttl = fs, ttl
	return d
}

// deriveMasked returns the per-link copy for routed peer forwarding: the
// event shallow-copied with the forwarded TTL and the link's serve-mask,
// plus a source whose frame is an 8-byte mask patch on the parent's
// shared mask-slot encoding (one marshal per event, one memmove per
// link).
func (fs *frameSource) deriveMasked(ttl uint8, mask uint64) (*event.Event, *frameSource) {
	c := *fs.e
	c.TTL = ttl
	c.Mask = mask
	d := fs.rs.source(&c)
	d.parent, d.ttl, d.mask, d.masked = fs, ttl, mask, true
	return &c, d
}

// frame returns the shared encoded frame, encoding on first use.
func (fs *frameSource) frame() *event.Frame {
	if fs.f.Len() == 0 {
		switch {
		case fs.masked:
			fs.f = *fs.parent.maskFrame(fs.ttl).WithMask(fs.mask)
		case fs.parent != nil:
			fs.f = *fs.parent.frame().WithTTL(fs.ttl)
		default:
			fs.f = fs.rs.arena.NewFrame(fs.e)
		}
	}
	return &fs.f
}

// maskFrame returns the shared mask-slot encoding of the root event at
// the forwarded TTL, encoding on first use. Every routed peer copy of
// one event patches this single buffer.
func (fs *frameSource) maskFrame(ttl uint8) *event.Frame {
	if fs.mf.Len() == 0 {
		c := *fs.e
		c.TTL = ttl
		if c.Mask == 0 {
			c.Mask = ^uint64(0) // placeholder; always patched per link
		}
		fs.mf = fs.rs.arena.NewFrame(&c)
	}
	return &fs.mf
}

// reliableFrame returns the shared rseq-slot encoding, encoding on first
// use. Fan-out to K framed targets performs one marshal here; each
// target then derives an 8-byte-patched copy (Frame.WithRSeq) instead of
// a clone+marshal. Masked sources encode per link — their masks differ,
// and reliable mesh traffic is sparse signalling.
func (fs *frameSource) reliableFrame() *event.Frame {
	if fs.rf.Len() == 0 {
		if fs.parent != nil && !fs.masked {
			fs.rf = *fs.parent.reliableFrame().WithTTL(fs.ttl)
		} else {
			fs.rf = fs.rs.arena.NewFrameWithRSeqSlot(fs.e)
		}
	}
	return &fs.rf
}

// sweepGenCounter hands out globally unique burst generations to route
// sweeps, making the per-session staging slots below self-invalidating:
// a slot can only validate against the one sweep generation that wrote
// it.
var sweepGenCounter atomic.Uint64

// stageIdxBits is the width of the staging-slot index field; the upper
// bits carry the sweep generation.
const stageIdxBits = 20

// routeSweep routes a whole decoded burst in one sweep, resolving each
// topic through its sweep-private route entry and staging best-effort
// deliveries into per-session batches that are pushed — one queue lock,
// one writer wakeup per session — when the sweep finishes. It is the
// broker's one routing path: a session reader owns a sweep for its
// connection's life, and Broker.route borrows a pooled one for a burst
// of one. Not safe for concurrent use.
type routeSweep struct {
	b *Broker

	// Route memo: one persistent, sweep-private entry per topic, with
	// last as the map-free fast path for a repeating topic. Every hit is
	// revalidated by one atomic load of the owning trie shard's epoch, so
	// concurrent publisher bursts on different reader goroutines resolve
	// repeating topics with no shared lock at all; a mutation anywhere in
	// the shard bumps its epoch and the entry re-matches on the trie.
	routes map[string]*sweepRoute
	last   *sweepRoute

	// Per-session staging, index-stable within a sweep so the item
	// slices are reused burst to burst. A session's index lives in its
	// generation-stamped stageSlot — the per-event path is an atomic
	// load and compare, no hash — with idx as the slow-path map behind
	// it: first touch of a session in a burst, and recovery when a
	// concurrent sweep clobbers the shared slot, so a session is never
	// staged (and its queue never locked) twice per burst. gen is this
	// sweep's current burst generation.
	gen      uint64
	idx      map[*session]int
	sessions []*session
	items    [][]outItem

	peersServed []*session // per-event scratch for the p2p flood

	// srcs is the unused tail of the current frameSource slab, and arena
	// is where the burst's encode-once frames go. Both carry over from
	// burst to burst and are replaced, never rewound, when used up.
	srcs  []frameSource
	arena event.FrameArena

	// stats accumulates the burst's data-path counter deltas; finish()
	// flushes them to the shared counters in one atomic add per counter
	// per burst instead of one per event.
	stats routeStats

	// Per-recorder record staging, mirroring the per-session batches:
	// matched events accumulate their frame bytes per recorder across
	// the burst, and finish() commits each run in one topiclog.Append —
	// one log lock, one file write per recorder per burst.
	recIdx  map[*recorder]int
	recList []*recorder
	recBufs [][][]byte
}

// sweepRoute is everything routing needs for one topic. targets are
// valid while the owning trie shard's epoch still equals epoch; recs
// never go stale (the recorded patterns are fixed at construction); plan
// is valid while the broker's published plan table is still plans.
type sweepRoute struct {
	topic   string
	targets []*session
	recs    []*recorder
	shard   int
	epoch   uint64
	plan    *topicPlan
	plans   *meshPlanTable
}

// sweepRouteBound caps each sweep's route memo (cleared wholesale on
// overflow; per-reader, so total memory is readers × bound).
const sweepRouteBound = 1024

// newRouteSweep creates a sweep bound to the broker's data plane.
func (b *Broker) newRouteSweep() *routeSweep {
	rs := &routeSweep{
		b:      b,
		routes: make(map[string]*sweepRoute),
		idx:    make(map[*session]int),
		gen:    sweepGenCounter.Add(1),
	}
	if b.rec != nil {
		rs.recIdx = make(map[*recorder]int)
	}
	return rs
}

// recordStage accumulates one matched event's frame bytes in the
// recorder's staged run; finish() appends the run in one call.
func (rs *routeSweep) recordStage(r *recorder, e *event.Event, fs *frameSource) {
	i, ok := rs.recIdx[r]
	if !ok {
		i = len(rs.recList)
		rs.recIdx[r] = i
		rs.recList = append(rs.recList, r)
		if len(rs.recBufs) < len(rs.recList) {
			rs.recBufs = append(rs.recBufs, nil)
		}
	}
	rs.recBufs[i] = append(rs.recBufs[i], fs.frame().Bytes())
}

// lookup returns the topic's route entry with current targets: the
// last-topic fast path, then the sweep's map, a new entry on a miss.
// A hit costs one atomic epoch load and no shared lock; a stale or new
// entry matches on the trie under the shard's RLock, stamped with the
// epoch sampled before matching, so a concurrent mutation can only make
// it conservatively stale, never wrongly fresh.
func (rs *routeSweep) lookup(topic string) *sweepRoute {
	subs := rs.b.subs
	ent := rs.last
	if ent == nil || ent.topic != topic {
		if ent = rs.routes[topic]; ent == nil {
			if len(rs.routes) >= sweepRouteBound {
				clear(rs.routes)
			}
			ent = &sweepRoute{topic: topic, shard: subs.ShardFor(topic)}
			ent.targets, ent.epoch = subs.MatchEpochAt(ent.shard, topic, nil)
			if rs.b.rec != nil {
				ent.recs = rs.b.rec.match(topic)
			}
			rs.routes[topic] = ent
		}
		rs.last = ent
	}
	if ent.epoch != subs.EpochAt(ent.shard) {
		ent.targets, ent.epoch = subs.MatchEpochAt(ent.shard, topic, nil)
	}
	return ent
}

// planOf returns the entry's mesh forwarding plan, re-resolving it only
// when the broker has published a new plan table since (nil is a valid
// result: unplanned topics fall back to unmasked forwarding).
func (rs *routeSweep) planOf(ent *sweepRoute) *topicPlan {
	if tbl := rs.b.meshPlans.Load(); tbl != ent.plans {
		ent.plan, ent.plans = tbl.planFor(ent.topic), tbl
	}
	return ent.plan
}

// stage queues one best-effort item for t in the sweep's pending batch.
// The session's staging index is read from its generation-stamped slot
// — one atomic load and compare instead of a map lookup per (event,
// target). A slot clobbered by a concurrent sweep fails to validate
// (generations are globally unique) and falls back to the per-sweep
// map, which re-stamps the slot; the map is touched only on first
// staging of a session in a burst and on clobber recovery, so each
// session still gets exactly one batch (one queue lock, one wakeup)
// per burst.
func (rs *routeSweep) stage(t *session, it outItem) {
	slot := t.stageSlot.Load()
	i := int(slot & (1<<stageIdxBits - 1))
	if slot>>stageIdxBits != rs.gen || i >= len(rs.sessions) || rs.sessions[i] != t {
		var ok bool
		if i, ok = rs.idx[t]; !ok {
			i = len(rs.sessions)
			rs.idx[t] = i
			rs.sessions = append(rs.sessions, t)
			if len(rs.items) < len(rs.sessions) {
				rs.items = append(rs.items, nil)
			}
		}
		if i < 1<<stageIdxBits {
			t.stageSlot.Store(rs.gen<<stageIdxBits | uint64(i))
		}
	}
	rs.items[i] = append(rs.items[i], it)
}

// deliverStaged stages one event for t. Best-effort events join the
// per-session batch; reliable events take the encode-once reliable path
// immediately (their per-target work is an 8-byte rseq patch, and the
// reliable lane is ordered independently of the best-effort ring
// anyway).
func (rs *routeSweep) deliverStaged(t *session, e *event.Event, fs *frameSource) {
	if e.Reliable {
		if t.fwdCtr != nil {
			t.fwdCtr.Inc()
		}
		t.sendReliableFrom(e, fs)
		return
	}
	var f *event.Frame
	if t.framed {
		f = fs.frame()
	}
	rs.stage(t, outItem{e: e, frame: f})
}

// routeBatch routes one decoded burst, amortizing target resolution (the
// per-burst memo) and queue handoff (staged pushBatch) across the
// burst.
func (rs *routeSweep) routeBatch(events []*event.Event, from *session) {
	for _, e := range events {
		rs.routeOne(e, from)
	}
	rs.finish()
}

// finish pushes every staged batch — one lock acquisition and one
// writer wakeup per session — and resets the sweep for the next burst.
// Record runs commit first: an attached replay tailer re-delivers the
// appended frames through the reliable lane, and appending before the
// best-effort pushes keeps the durable log's order the canonical one.
func (rs *routeSweep) finish() {
	b := rs.b
	rs.stats.flush(&b.ctr)
	for i, r := range rs.recList {
		if _, err := r.log.Append(rs.recBufs[i]); err != nil {
			b.rec.appendErrs.Inc()
		} else {
			r.appended.Add(uint64(len(rs.recBufs[i])))
		}
		clear(rs.recBufs[i])
		rs.recBufs[i] = rs.recBufs[i][:0]
	}
	if len(rs.recList) > 0 {
		clear(rs.recList)
		rs.recList = rs.recList[:0]
		clear(rs.recIdx)
	}
	for i, t := range rs.sessions {
		items := rs.items[i]
		if t.fwdCtr != nil {
			t.fwdCtr.Add(uint64(len(items)))
		}
		if dropped := t.queue.pushBatch(items); dropped > 0 {
			b.ctr.queueDrops.Add(uint64(dropped))
			if t.linkDropCtr != nil {
				t.linkDropCtr.Add(uint64(dropped))
			}
		}
		// Clear staged references so the reused buffers never pin events.
		clear(items)
		rs.items[i] = items[:0]
	}
	clear(rs.sessions)
	rs.sessions = rs.sessions[:0]
	clear(rs.idx)
	// A fresh generation invalidates every staging slot this burst wrote.
	// The epoch-validated route memo persists across bursts (that is its
	// point).
	rs.gen = sweepGenCounter.Add(1)
	clear(rs.peersServed)
	rs.peersServed = rs.peersServed[:0]
}
