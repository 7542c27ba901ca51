package broker

import (
	"sync"
	"sync/atomic"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/topic"
)

// router is the broker's data-plane routing state: a sharded subscription
// trie plus an epoch-versioned route cache. It is deliberately separate
// from the Broker's control-plane mutex — publishes resolve their targets
// through per-shard locks only and never contend with advertisement or
// peering bookkeeping on b.mu.
type router struct {
	subs *topic.ShardedTrie[*session]
	// caches is parallel to the trie shards: cache shard i memoises
	// matches for topics owned by trie shard i, validated by that shard's
	// mutation epoch.
	caches      []routeCacheShard
	maxPerShard int
}

type routeCacheShard struct {
	mu      sync.RWMutex
	entries map[string]routeEntry
	_       [8]uint64 // avoid false sharing between shard locks
}

// routeEntry is one memoised match result, valid while the owning trie
// shard's epoch still equals epoch.
type routeEntry struct {
	targets []*session
	epoch   uint64
}

// routeCacheBound caps the total number of memoised topics across all
// shards (matching the pre-split broker's 4096-topic bound).
const routeCacheBound = 4096

func newRouter(shards int) *router {
	subs := topic.NewShardedTrie[*session](shards)
	n := subs.NumShards()
	per := routeCacheBound / n
	if per < 16 {
		per = 16
	}
	r := &router{
		subs:        subs,
		caches:      make([]routeCacheShard, n),
		maxPerShard: per,
	}
	for i := range r.caches {
		r.caches[i].entries = make(map[string]routeEntry)
	}
	return r
}

// Mutators re-validate the route cache per pattern rather than letting
// entries go epoch-stale wholesale: entries whose topic the mutated
// pattern matches are dropped, everything else is re-stamped to the
// post-mutation epoch and keeps serving from cache. All mutations are
// serialized by the broker's control-plane mutex, so a sweep never races
// another sweep; a concurrent data-plane match can only insert an entry
// stamped with a pre-mutation epoch, which fails validation
// conservatively.

func (r *router) add(pattern string, s *session) error {
	if err := r.subs.Add(pattern, s); err != nil {
		return err
	}
	r.invalidatePattern(pattern)
	return nil
}

func (r *router) remove(pattern string, s *session) {
	r.subs.Remove(pattern, s)
	r.invalidatePattern(pattern)
}

// removeAll unregisters s everywhere. patterns is the session's own
// bookkeeping of what it was subscribed to (local + remote); RemoveAll
// bumps every shard epoch, so every cache shard is swept against them.
func (r *router) removeAll(s *session, patterns []string) {
	r.subs.RemoveAll(s)
	for i := range r.caches {
		r.sweepCacheShard(i, patterns)
	}
}

// invalidatePattern re-validates the cache shard(s) a single mutated
// pattern can affect: one shard for a concrete-first pattern, all shards
// for a wildcard-first (replicated) one.
func (r *router) invalidatePattern(pattern string) {
	pats := []string{pattern}
	if shard, all := r.subs.PatternShard(pattern); all {
		for i := range r.caches {
			r.sweepCacheShard(i, pats)
		}
	} else {
		r.sweepCacheShard(shard, pats)
	}
}

// sweepCacheShard drops cache entries whose topic matches any of the
// mutated patterns and re-stamps the rest with the post-mutation epoch
// (sampled under the cache lock, after the trie mutation completed), so
// churn on one pattern does not thrash the shard's whole cache.
func (r *router) sweepCacheShard(i int, patterns []string) {
	c := &r.caches[i]
	c.mu.Lock()
	epoch := r.subs.EpochAt(i)
	for t, ent := range c.entries {
		matched := false
		for _, p := range patterns {
			if topic.MatchPattern(p, t) {
				matched = true
				break
			}
		}
		if matched {
			delete(c.entries, t)
		} else if ent.epoch != epoch {
			ent.epoch = epoch
			c.entries[t] = ent
		}
	}
	c.mu.Unlock()
}

// match resolves the sessions subscribed to a concrete topic.
func (r *router) match(t string) []*session {
	targets, _, _ := r.matchEpoch(t)
	return targets
}

// matchEpoch resolves the sessions subscribed to a concrete topic, plus
// the validation coordinates — the owning trie shard and the epoch the
// result is valid for — so sweep-local caches can revalidate later hits
// with one atomic epoch load and no shared lock at all. The fast path
// is a cache shard RLock plus an atomic epoch check; a miss matches
// under the trie shard's RLock and memoises the result stamped with the
// epoch sampled before matching, so a concurrent mutation can only make
// the entry conservatively stale, never wrongly fresh.
func (r *router) matchEpoch(t string) ([]*session, int, uint64) {
	shard := r.subs.ShardFor(t)
	c := &r.caches[shard]
	c.mu.RLock()
	ent, ok := c.entries[t]
	c.mu.RUnlock()
	if ok && ent.epoch == r.subs.EpochAt(shard) {
		return ent.targets, shard, ent.epoch
	}
	targets, epoch := r.subs.MatchEpochAt(shard, t, nil)
	c.mu.Lock()
	if ok || len(c.entries) < r.maxPerShard {
		c.entries[t] = routeEntry{targets: targets, epoch: epoch}
	}
	c.mu.Unlock()
	return targets, shard, epoch
}

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

// routeSweep routes a whole decoded burst in one sweep, resolving
// targets once per topic (memoized across the burst) and staging
// best-effort deliveries into per-session batches that are pushed — one
// queue lock, one writer wakeup per session — when the sweep finishes.
// It is the broker's one routing path: a session reader owns a sweep
// for its connection's life, and Broker.route borrows a pooled one for
// a burst of one. Not safe for concurrent use.
type routeSweep struct {
	b *Broker

	// Target memo. The map-free fast path covers the immediately
	// preceding topic within a burst. Behind it sits cache: a persistent,
	// sweep-private topic→targets memo validated per hit by one atomic
	// load of the owning trie shard's epoch — so concurrent publisher
	// bursts on different reader goroutines resolve repeating topics
	// with zero shared-lock acquisitions, instead of all meeting on the
	// router's cache-shard RWMutex every burst. A mutation anywhere in
	// the shard bumps its epoch and the stale entry re-resolves through
	// the router.
	lastTopic   string
	lastTargets []*session
	lastOK      bool
	cache       map[string]sweepRoute

	// Per-burst mesh-plan memo, mirroring the target memo: one plan
	// resolution per topic per burst (nil is a valid, memoized result —
	// unplanned topics fall back to unmasked forwarding).
	lastPlanTopic string
	lastPlan      *topicPlan
	lastPlanOK    bool
	plans         map[string]*topicPlan

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

// sweepRoute is one sweep-local memoised match: targets valid while the
// owning trie shard's epoch still equals epoch.
type sweepRoute struct {
	targets []*session
	shard   int
	epoch   uint64
}

// sweepRouteCacheBound caps each sweep's private route cache (cleared
// wholesale on overflow; per-reader, so total memory is readers × bound).
const sweepRouteCacheBound = 1024

// newRouteSweep creates a sweep bound to the broker's data plane.
func (b *Broker) newRouteSweep() *routeSweep {
	rs := &routeSweep{
		b:     b,
		cache: make(map[string]sweepRoute),
		plans: make(map[string]*topicPlan),
		idx:   make(map[*session]int),
		gen:   sweepGenCounter.Add(1),
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

// matchMemo resolves targets for a topic: the last-topic fast path, then
// the sweep-private epoch-validated cache (a hit costs one atomic load,
// no shared lock), then the router.
func (rs *routeSweep) matchMemo(topic string) []*session {
	if rs.lastOK && topic == rs.lastTopic {
		return rs.lastTargets
	}
	r := rs.b.router
	ent, ok := rs.cache[topic]
	if !ok || ent.epoch != r.subs.EpochAt(ent.shard) {
		ent.targets, ent.shard, ent.epoch = r.matchEpoch(topic)
		if len(rs.cache) >= sweepRouteCacheBound {
			clear(rs.cache)
		}
		rs.cache[topic] = ent
	}
	rs.lastTopic, rs.lastTargets, rs.lastOK = topic, ent.targets, true
	return ent.targets
}

// planMemo resolves the mesh forwarding plan for a topic at most once
// per burst.
func (rs *routeSweep) planMemo(topic string) *topicPlan {
	if rs.lastPlanOK && topic == rs.lastPlanTopic {
		return rs.lastPlan
	}
	p, ok := rs.plans[topic]
	if !ok {
		p = rs.b.planFor(topic)
		rs.plans[topic] = p
	}
	rs.lastPlanTopic, rs.lastPlan, rs.lastPlanOK = topic, p, true
	return p
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
	// The epoch-validated cache persists across bursts (that is its
	// point).
	rs.gen = sweepGenCounter.Add(1)
	rs.lastOK = false
	rs.lastTargets = nil
	rs.lastTopic = ""
	clear(rs.plans)
	rs.lastPlanOK = false
	rs.lastPlan = nil
	rs.lastPlanTopic = ""
	clear(rs.peersServed)
	rs.peersServed = rs.peersServed[:0]
}
