package broker

import (
	"sync"
	"sync/atomic"

	"github.com/globalmmcs/globalmmcs/internal/event"
)

// dedupWindow is the per-source sequence window width in event IDs: a
// source's IDs are tracked exactly within (maxID-dedupWindow, maxID];
// anything older is assumed to be a duplicate.
const dedupWindow = 8192

// Shard sizing: the cache splits into power-of-two shards once each
// shard would still hold at least dedupShardTarget sources, capped at
// dedupMaxShards. Small caches (unit tests, tiny deployments) stay
// single-sharded with global FIFO eviction; production-sized caches
// spread the per-event mutex across 16 locks.
const (
	dedupShardTarget = 64
	dedupMaxShards   = 16
)

// dedupCache suppresses duplicate events forwarded through cyclic
// broker topologies. Event IDs are per-source publish sequences, so
// instead of remembering individual keys — a fixed-size key FIFO is
// outrun as soon as the publish rate times the cycle latency exceeds
// its capacity, exactly the saturated-mesh regime — the cache keeps one
// sliding bitmap window per source: IDs above the window are new and
// advance it, IDs inside it are checked exactly, and IDs that have
// fallen below it are treated as duplicates (a copy that took so long
// to come around the cycle that thousands of newer events from the same
// source were already routed; for best-effort traffic late-dropping
// such a straggler is a drop the overloaded path would have made
// anyway, and reliable copies below the window are always real
// duplicates because reliable links do not reorder past the window).
// Memory is bounded per source (1 KiB) regardless of publish rate.
//
// The cache is sharded by source so that concurrent peer readLoops
// arming dedup for different origins do not serialize on one mutex.
// Each shard evicts FIFO beyond its capacity, and sweepIdle prunes
// sources that have gone quiet so long-lived meshes don't pin windows
// for every origin that ever published.
type dedupCache struct {
	gen    atomic.Uint64 // bumped by sweepIdle; stamps last-seen generation
	mask   uint32
	shards []dedupShard
}

// dedupRef is one FIFO eviction-order entry. The stamp pairs it with
// the exact sourceWindow it was queued for: a source pruned by
// sweepIdle and later re-added gets a fresh window with a fresh stamp,
// so its stale older ref no longer matches and cannot evict it early.
type dedupRef struct {
	src   string
	stamp uint64
}

type dedupShard struct {
	mu    sync.Mutex
	cap   int
	stamp uint64
	// sources is made on the shard's first insert and grows with the
	// sources actually seen: a standalone broker never arms dedup, and
	// maps sized to capacity up front are megabytes of pointer-dense
	// buckets for every GC cycle to mark.
	sources map[string]*sourceWindow
	fifo    ring[dedupRef]
}

// sourceWindow is one source's replay window: a circular bitmap over
// the dedupWindow IDs ending at maxID (bit index = ID % dedupWindow).
type sourceWindow struct {
	maxID uint64
	stamp uint64 // matches this window's live fifo entry
	gen   uint64 // cache generation the source was last seen in
	bits  [dedupWindow / 64]uint64
}

func (w *sourceWindow) get(id uint64) bool {
	return w.bits[(id%dedupWindow)/64]&(1<<(id%64)) != 0
}

func (w *sourceWindow) set(id uint64) {
	w.bits[(id%dedupWindow)/64] |= 1 << (id % 64)
}

func (w *sourceWindow) clear(id uint64) {
	w.bits[(id%dedupWindow)/64] &^= 1 << (id % 64)
}

// seen records id and reports whether it was already present (or is so
// far below the window it must be a late loop copy).
func (w *sourceWindow) seen(id uint64) bool {
	switch {
	case id > w.maxID:
		if id-w.maxID >= dedupWindow {
			w.bits = [dedupWindow / 64]uint64{}
		} else {
			for s := w.maxID + 1; s < id; s++ {
				w.clear(s)
			}
		}
		w.maxID = id
		w.set(id)
		return false
	case w.maxID-id < dedupWindow:
		if w.get(id) {
			return true
		}
		w.set(id)
		return false
	default:
		return true
	}
}

// newDedupCache creates a cache tracking up to capacity sources in
// total, split across shards.
func newDedupCache(capacity int) *dedupCache {
	if capacity <= 0 {
		capacity = 1
	}
	shards := 1
	for shards < dedupMaxShards && capacity/(shards*2) >= dedupShardTarget {
		shards *= 2
	}
	perShard := (capacity + shards - 1) / shards
	d := &dedupCache{mask: uint32(shards - 1), shards: make([]dedupShard, shards)}
	for i := range d.shards {
		d.shards[i].cap = perShard
	}
	return d
}

// shardFor picks the shard for a source (FNV-1a).
func (d *dedupCache) shardFor(src string) *dedupShard {
	h := uint32(2166136261)
	for i := 0; i < len(src); i++ {
		h ^= uint32(src[i])
		h *= 16777619
	}
	return &d.shards[h&d.mask]
}

// seen records k and reports whether it was already seen.
func (d *dedupCache) seen(k event.Key) bool {
	sh := d.shardFor(k.Source)
	g := d.gen.Load()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if w, ok := sh.sources[k.Source]; ok {
		w.gen = g
		return w.seen(k.ID)
	}
	if len(sh.sources) >= sh.cap {
		sh.evictOneLocked()
	}
	w := &sourceWindow{maxID: k.ID, stamp: sh.stamp, gen: g}
	w.set(k.ID)
	if sh.sources == nil {
		sh.sources = make(map[string]*sourceWindow)
	}
	sh.sources[k.Source] = w
	sh.fifo.push(dedupRef{src: k.Source, stamp: sh.stamp})
	sh.stamp++
	return false
}

// evictOneLocked removes the oldest still-live source in FIFO order,
// skipping refs orphaned by sweepIdle pruning. Callers hold sh.mu.
func (sh *dedupShard) evictOneLocked() {
	for sh.fifo.len() > 0 {
		if ref := sh.fifo.pop(); sh.live(ref) {
			delete(sh.sources, ref.src)
			return
		}
	}
}

// live reports whether ref still names the window it was queued for.
func (sh *dedupShard) live(ref dedupRef) bool {
	w, ok := sh.sources[ref.src]
	return ok && w.stamp == ref.stamp
}

// sweepIdle advances the cache generation and prunes every source not
// seen within the last gens generations (housekeeping calls it once per
// refresh tick, so "generation" ≈ one refresh interval). It returns how
// many sources were pruned.
func (d *dedupCache) sweepIdle(gens int) int {
	cur := d.gen.Add(1)
	pruned := 0
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		removed := false
		for src, w := range sh.sources {
			if cur-w.gen > uint64(gens) {
				delete(sh.sources, src)
				pruned++
				removed = true
			}
		}
		if removed {
			// Compact the FIFO in place, dropping refs whose window was
			// pruned so stale strings don't accumulate between evictions:
			// one lap pops every ref and re-pushes the live ones, in order.
			for range sh.fifo.len() {
				if ref := sh.fifo.pop(); sh.live(ref) {
					sh.fifo.push(ref)
				}
			}
		}
		sh.mu.Unlock()
	}
	return pruned
}

// len returns the number of tracked sources (for tests).
func (d *dedupCache) len() int {
	n := 0
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		n += len(sh.sources)
		sh.mu.Unlock()
	}
	return n
}
