package topic

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// ShardedTrie partitions a subscription trie by the first topic segment
// so that concurrent matchers and mutators contend only per shard, not on
// one structure-wide lock. Patterns whose first segment is concrete live
// in exactly one shard; patterns whose first segment is a wildcard ("*"
// or "#") are replicated into every shard, so matching a concrete topic
// always touches exactly one shard.
//
// Each shard carries an epoch that is bumped on every mutation. Callers
// building caches on top of Match sample the epoch with MatchEpochAt and
// treat a cached entry as valid only while the shard epoch is unchanged.
type ShardedTrie[V comparable] struct {
	shards []trieShard[V]
	seed   maphash.Seed
}

type trieShard[V comparable] struct {
	mu    sync.RWMutex
	trie  *Trie[V]
	epoch atomic.Uint64
	_     [8]uint64 // pad to a cache line so shard locks don't false-share
}

// DefaultShards is the shard count used when callers pass n <= 0. Small
// enough that replicated wildcard-first patterns stay cheap, large enough
// that a busy broker's publishers rarely collide on a shard lock.
const DefaultShards = 16

// NewShardedTrie creates a trie sharded n ways (n <= 0 uses
// DefaultShards; n is rounded up to a power of two).
func NewShardedTrie[V comparable](n int) *ShardedTrie[V] {
	if n <= 0 {
		n = DefaultShards
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	t := &ShardedTrie[V]{
		shards: make([]trieShard[V], pow),
		seed:   maphash.MakeSeed(),
	}
	for i := range t.shards {
		t.shards[i].trie = NewTrie[V]()
	}
	return t
}

// firstSegment extracts the first path segment of a validated topic or
// pattern without allocating.
func firstSegment(s string) string {
	if len(s) < 2 || s[0] != '/' {
		return ""
	}
	rest := s[1:]
	for i := 0; i < len(rest); i++ {
		if rest[i] == '/' {
			return rest[:i]
		}
	}
	return rest
}

// shardOf maps a concrete first segment to its shard index.
func (t *ShardedTrie[V]) shardOf(seg string) int {
	return int(maphash.String(t.seed, seg) & uint64(len(t.shards)-1))
}

// ShardFor returns the shard index a concrete topic resolves to.
func (t *ShardedTrie[V]) ShardFor(topic string) int {
	return t.shardOf(firstSegment(topic))
}

// wildcardFirst reports whether the pattern's first segment is "*" or "#"
// (such patterns are replicated into every shard).
func wildcardFirst(pattern string) bool {
	seg := firstSegment(pattern)
	return seg == Single || seg == Rest
}

// Add registers subscriber v under pattern. Malformed patterns error.
func (t *ShardedTrie[V]) Add(pattern string, v V) error {
	if err := ValidatePattern(pattern); err != nil {
		return err
	}
	if wildcardFirst(pattern) {
		for i := range t.shards {
			s := &t.shards[i]
			s.mu.Lock()
			err := s.trie.Add(pattern, v)
			s.epoch.Add(1)
			s.mu.Unlock()
			if err != nil {
				return err
			}
		}
		return nil
	}
	s := &t.shards[t.shardOf(firstSegment(pattern))]
	s.mu.Lock()
	err := s.trie.Add(pattern, v)
	s.epoch.Add(1)
	s.mu.Unlock()
	return err
}

// Remove unregisters subscriber v from pattern, reporting whether the
// entry existed.
func (t *ShardedTrie[V]) Remove(pattern string, v V) bool {
	if wildcardFirst(pattern) {
		removed := false
		for i := range t.shards {
			s := &t.shards[i]
			s.mu.Lock()
			if s.trie.Remove(pattern, v) {
				removed = true
			}
			s.epoch.Add(1)
			s.mu.Unlock()
		}
		return removed
	}
	if ValidatePattern(pattern) != nil {
		return false
	}
	s := &t.shards[t.shardOf(firstSegment(pattern))]
	s.mu.Lock()
	removed := s.trie.Remove(pattern, v)
	s.epoch.Add(1)
	s.mu.Unlock()
	return removed
}

// RemoveAll unregisters v everywhere and returns the number of trie
// entries removed. Wildcard-first patterns are replicated per shard, so
// each replica counts; callers needing distinct-pattern counts should
// track patterns themselves (the broker does, via session bookkeeping).
func (t *ShardedTrie[V]) RemoveAll(v V) int {
	removed := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		removed += s.trie.RemoveAll(v)
		s.epoch.Add(1)
		s.mu.Unlock()
	}
	return removed
}

// Match appends every subscriber matching the concrete topic to dst.
func (t *ShardedTrie[V]) Match(topic string, dst []V) []V {
	matched, _ := t.MatchEpochAt(t.ShardFor(topic), topic, dst)
	return matched
}

// MatchEpochAt is Match on the shard at an index already resolved via
// ShardFor, plus that shard's epoch sampled before matching. A cached
// result stored with this epoch is valid while EpochAt(shard) still
// returns the same value: any concurrent mutation that could change the
// match result bumps the shard epoch, so a stale entry can never be
// observed as fresh.
func (t *ShardedTrie[V]) MatchEpochAt(shard int, topic string, dst []V) ([]V, uint64) {
	s := &t.shards[shard]
	epoch := s.epoch.Load()
	s.mu.RLock()
	dst = s.trie.Match(topic, dst)
	s.mu.RUnlock()
	return dst, epoch
}

// EpochAt returns the mutation epoch of the shard at an index already
// resolved via ShardFor.
func (t *ShardedTrie[V]) EpochAt(shard int) uint64 {
	return t.shards[shard].epoch.Load()
}
