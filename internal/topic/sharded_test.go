package topic

import (
	"fmt"
	"sync"
	"testing"
)

func TestShardedTrieMatchBasics(t *testing.T) {
	st := NewShardedTrie[string](4)
	for pattern, sub := range map[string]string{
		"/media/video/*": "v",
		"/media/#":       "m",
		"/chat/room/1":   "c",
		"/*/video/1":     "wild-single",
		"/#":             "wild-rest",
	} {
		if err := st.Add(pattern, sub); err != nil {
			t.Fatalf("add %q: %v", pattern, err)
		}
	}
	got := map[string]bool{}
	for _, v := range st.Match("/media/video/1", nil) {
		got[v] = true
	}
	for _, want := range []string{"v", "m", "wild-single", "wild-rest"} {
		if !got[want] {
			t.Errorf("match /media/video/1 missing %q (got %v)", want, got)
		}
	}
	if got["c"] {
		t.Error("chat subscriber matched a media topic")
	}
	// Wildcard-first patterns must match topics in every shard.
	for _, topic := range []string{"/a/video/1", "/b/video/1", "/c/video/1", "/d/video/1"} {
		found := false
		for _, v := range st.Match(topic, nil) {
			if v == "wild-single" {
				found = true
			}
		}
		if !found {
			t.Errorf("wildcard-first pattern missed topic %s", topic)
		}
	}
}

func TestShardedTrieRemove(t *testing.T) {
	st := NewShardedTrie[int](4)
	if err := st.Add("/a/b", 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Add("/#", 1); err != nil {
		t.Fatal(err)
	}
	if !st.Remove("/a/b", 1) {
		t.Fatal("remove existing concrete-first pattern")
	}
	if st.Remove("/a/b", 1) {
		t.Fatal("double remove reported true")
	}
	if !st.Remove("/#", 1) {
		t.Fatal("remove existing wildcard-first pattern")
	}
	if vs := st.Match("/a/b", nil); len(vs) != 0 {
		t.Fatalf("matches after removal: %v", vs)
	}
}

func TestShardedTrieRemoveAll(t *testing.T) {
	st := NewShardedTrie[int](4)
	st.Add("/a/b", 1)
	st.Add("/c/d", 1)
	st.Add("/a/b", 2)
	if n := st.RemoveAll(1); n != 2 {
		t.Fatalf("RemoveAll removed %d entries, want 2", n)
	}
	vs := st.Match("/a/b", nil)
	if len(vs) != 1 || vs[0] != 2 {
		t.Fatalf("match after RemoveAll = %v, want [2]", vs)
	}
}

func TestShardedTrieEpochInvalidation(t *testing.T) {
	st := NewShardedTrie[int](4)
	st.Add("/a/b", 1)
	shard := st.ShardFor("/a/b")
	matched, epoch := st.MatchEpochAt(shard, "/a/b", nil)
	if len(matched) != 1 {
		t.Fatalf("match = %v", matched)
	}
	if st.EpochAt(shard) != epoch {
		t.Fatal("epoch changed without mutation")
	}
	// A mutation in the same shard must bump the epoch.
	st.Add("/a/c", 2)
	if st.EpochAt(shard) == epoch {
		t.Fatal("epoch unchanged after same-shard mutation")
	}
	// Wildcard-first mutations bump every shard.
	_, e2 := st.MatchEpochAt(shard, "/a/b", nil)
	st.Add("/#", 3)
	if st.EpochAt(shard) == e2 {
		t.Fatal("epoch unchanged after wildcard-first mutation")
	}
}

func TestShardedTrieMalformed(t *testing.T) {
	st := NewShardedTrie[int](2)
	if err := st.Add("no-slash", 1); err == nil {
		t.Fatal("malformed pattern accepted")
	}
	if st.Remove("no-slash", 1) {
		t.Fatal("malformed remove reported true")
	}
	if vs := st.Match("no-slash", nil); len(vs) != 0 {
		t.Fatalf("malformed topic matched: %v", vs)
	}
}

func TestShardedTrieShardCountRounding(t *testing.T) {
	if n := len(NewShardedTrie[int](0).shards); n != DefaultShards {
		t.Fatalf("default shards = %d, want %d", n, DefaultShards)
	}
	if n := len(NewShardedTrie[int](5).shards); n != 8 {
		t.Fatalf("shards(5) = %d, want 8", n)
	}
	if n := len(NewShardedTrie[int](1).shards); n != 1 {
		t.Fatalf("shards(1) = %d, want 1", n)
	}
}

func TestShardedTrieConcurrent(t *testing.T) {
	st := NewShardedTrie[int](8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p := fmt.Sprintf("/t%d/s%d", g, i%16)
				st.Add(p, g)
				st.Match(fmt.Sprintf("/t%d/s%d", g, i%16), nil)
				if i%3 == 0 {
					st.Remove(p, g)
				}
			}
			st.RemoveAll(g)
		}(g)
	}
	wg.Wait()
}
