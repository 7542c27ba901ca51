package topic

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestSplitValid(t *testing.T) {
	segs, err := Split("/a/b/c", false)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(segs, []string{"a", "b", "c"}) {
		t.Fatalf("segs = %v", segs)
	}
}

func TestSplitErrors(t *testing.T) {
	cases := []struct {
		in        string
		wildcards bool
		wantErr   error
	}{
		{"", false, ErrEmpty},
		{"a/b", false, ErrNoLeadingSlash},
		{"/a//b", false, ErrEmptySegment},
		{"/", false, ErrEmptySegment},
		{"/a/*", false, ErrWildcard},
		{"/a/#", false, ErrWildcard},
		{"/a/#/b", true, ErrRestNotLast},
		{"/" + strings.Repeat("x/", MaxSegments) + "x", false, ErrTooDeep},
	}
	for _, tc := range cases {
		t.Run(tc.in, func(t *testing.T) {
			_, err := Split(tc.in, tc.wildcards)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Split(%q) err = %v, want %v", tc.in, err, tc.wantErr)
			}
		})
	}
}

func TestValidateTopicAndPattern(t *testing.T) {
	if err := ValidateTopic("/xgsp/session/42/video"); err != nil {
		t.Error(err)
	}
	if err := ValidateTopic("/a/*"); err == nil {
		t.Error("wildcard accepted in concrete topic")
	}
	if err := ValidatePattern("/a/*/c"); err != nil {
		t.Error(err)
	}
	if err := ValidatePattern("/a/#"); err != nil {
		t.Error(err)
	}
}

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		pattern, topic string
		want           bool
	}{
		{"/a/b", "/a/b", true},
		{"/a/b", "/a/c", false},
		{"/a/b", "/a/b/c", false},
		{"/a/*", "/a/b", true},
		{"/a/*", "/a/b/c", false},
		{"/*/b", "/a/b", true},
		{"/a/#", "/a", true},
		{"/a/#", "/a/b/c/d", true},
		{"/a/#", "/b/x", false},
		{"/#", "/anything/at/all", true},
		{"/a/*/c", "/a/b/c", true},
		{"/a/*/c", "/a/b/d", false},
		{"bad", "/a", false},
		{"/a", "bad", false},
	}
	for _, tc := range cases {
		t.Run(tc.pattern+"~"+tc.topic, func(t *testing.T) {
			if got := MatchPattern(tc.pattern, tc.topic); got != tc.want {
				t.Fatalf("MatchPattern(%q, %q) = %v, want %v", tc.pattern, tc.topic, got, tc.want)
			}
		})
	}
}

func TestJoin(t *testing.T) {
	if got := Join("xgsp", "session", "42"); got != "/xgsp/session/42" {
		t.Fatalf("Join = %q", got)
	}
}

func TestTrieAddMatchRemove(t *testing.T) {
	tr := NewTrie[string]()
	mustAdd(t, tr, "/s/1/video", "alice")
	mustAdd(t, tr, "/s/1/video", "bob")
	mustAdd(t, tr, "/s/*/video", "carol")
	mustAdd(t, tr, "/s/#", "dave")

	got := tr.Match("/s/1/video", nil)
	slices.Sort(got)
	want := []string{"alice", "bob", "carol", "dave"}
	if !slices.Equal(got, want) {
		t.Fatalf("Match = %v, want %v", got, want)
	}

	if !tr.Remove("/s/1/video", "bob") {
		t.Fatal("Remove returned false for existing entry")
	}
	if tr.Remove("/s/1/video", "bob") {
		t.Fatal("Remove returned true for missing entry")
	}
	got = tr.Match("/s/1/video", nil)
	slices.Sort(got)
	if !slices.Equal(got, []string{"alice", "carol", "dave"}) {
		t.Fatalf("after remove, Match = %v", got)
	}
}

func TestTrieDuplicateAddIsNoop(t *testing.T) {
	tr := NewTrie[int]()
	mustAdd(t, tr, "/a", 1)
	mustAdd(t, tr, "/a", 1)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
}

func TestTrieSubscriberUnderMultiplePatternsAppearsOnce(t *testing.T) {
	tr := NewTrie[int]()
	mustAdd(t, tr, "/a/b", 7)
	mustAdd(t, tr, "/a/*", 7)
	mustAdd(t, tr, "/a/#", 7)
	got := tr.Match("/a/b", nil)
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("Match = %v, want [7]", got)
	}
}

func TestTrieRemoveAll(t *testing.T) {
	tr := NewTrie[string]()
	mustAdd(t, tr, "/a/b", "x")
	mustAdd(t, tr, "/a/*", "x")
	mustAdd(t, tr, "/c/#", "x")
	mustAdd(t, tr, "/a/b", "y")
	if n := tr.RemoveAll("x"); n != 3 {
		t.Fatalf("RemoveAll = %d, want 3", n)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	if got := tr.Match("/a/b", nil); len(got) != 1 || got[0] != "y" {
		t.Fatalf("Match = %v, want [y]", got)
	}
}

func TestTriePrunesEmptyNodes(t *testing.T) {
	tr := NewTrie[int]()
	mustAdd(t, tr, "/a/b/c/d", 1)
	tr.Remove("/a/b/c/d", 1)
	if len(tr.root.children) != 0 {
		t.Fatal("trie kept empty branches after removal")
	}
	mustAdd(t, tr, "/a/b", 2)
	tr.RemoveAll(2)
	if len(tr.root.children) != 0 {
		t.Fatal("RemoveAll kept empty branches")
	}
}

func TestTrieMatchFunc(t *testing.T) {
	tr := NewTrie[int]()
	mustAdd(t, tr, "/a/#", 1)
	mustAdd(t, tr, "/a/b", 2)
	var got []int
	tr.MatchFunc("/a/b", func(v int) { got = append(got, v) })
	slices.Sort(got)
	if !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("MatchFunc collected %v", got)
	}
}

func TestTrieMatchMalformedTopic(t *testing.T) {
	tr := NewTrie[int]()
	mustAdd(t, tr, "/a", 1)
	if got := tr.Match("no-slash", nil); len(got) != 0 {
		t.Fatalf("malformed topic matched %v", got)
	}
}

func TestTrieAddRejectsMalformed(t *testing.T) {
	tr := NewTrie[int]()
	if err := tr.Add("nope", 1); err == nil {
		t.Fatal("Add accepted malformed pattern")
	}
	if tr.Len() != 0 {
		t.Fatal("failed Add changed size")
	}
}

// Property: trie matching agrees with the reference MatchPattern for
// randomly generated patterns and topics.
func TestTriePropertyAgreesWithMatchPattern(t *testing.T) {
	segs := []string{"a", "b", "c"}
	rng := rand.New(rand.NewPCG(5, 17))
	genTopic := func(depth int) string {
		parts := make([]string, depth)
		for i := range parts {
			parts[i] = segs[rng.IntN(len(segs))]
		}
		return "/" + strings.Join(parts, "/")
	}
	genPattern := func(depth int) string {
		parts := make([]string, 0, depth)
		for i := range depth {
			r := rng.IntN(10)
			switch {
			case r == 0 && i == depth-1:
				parts = append(parts, Rest)
			case r <= 2:
				parts = append(parts, Single)
			default:
				parts = append(parts, segs[rng.IntN(len(segs))])
			}
		}
		return "/" + strings.Join(parts, "/")
	}
	for range 3000 {
		tr := NewTrie[int]()
		pattern := genPattern(1 + rng.IntN(4))
		if err := tr.Add(pattern, 1); err != nil {
			t.Fatalf("Add(%q): %v", pattern, err)
		}
		tpc := genTopic(1 + rng.IntN(4))
		trieHit := len(tr.Match(tpc, nil)) > 0
		refHit := MatchPattern(pattern, tpc)
		if trieHit != refHit {
			t.Fatalf("pattern %q topic %q: trie=%v ref=%v", pattern, tpc, trieHit, refHit)
		}
	}
}

// Property: '#' is a superset of '*' — any topic matched by a pattern with
// '*' in final position is matched by the same pattern with '#'.
func TestPropertyRestSupersetOfSingle(t *testing.T) {
	f := func(a, b uint8) bool {
		segs := []string{"x", "y"}
		topic := fmt.Sprintf("/%s/%s", segs[a%2], segs[b%2])
		star := "/" + segs[a%2] + "/*"
		rest := "/" + segs[a%2] + "/#"
		if MatchPattern(star, topic) && !MatchPattern(rest, topic) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mustAdd[V comparable](t *testing.T, tr *Trie[V], pattern string, v V) {
	t.Helper()
	if err := tr.Add(pattern, v); err != nil {
		t.Fatalf("Add(%q): %v", pattern, err)
	}
}

func BenchmarkTopicMatch(b *testing.B) {
	tr := NewTrie[int]()
	for i := range 1000 {
		if err := tr.Add(fmt.Sprintf("/xgsp/session/%d/video", i), i); err != nil {
			b.Fatal(err)
		}
	}
	if err := tr.Add("/xgsp/session/*/video", -1); err != nil {
		b.Fatal(err)
	}
	var dst []int
	b.ReportAllocs()
	for b.Loop() {
		dst = tr.Match("/xgsp/session/500/video", dst[:0])
	}
}

func BenchmarkTopicMatchDeep(b *testing.B) {
	tr := NewTrie[int]()
	if err := tr.Add("/a/b/c/d/e/f/g/h", 1); err != nil {
		b.Fatal(err)
	}
	var dst []int
	b.ReportAllocs()
	for b.Loop() {
		dst = tr.Match("/a/b/c/d/e/f/g/h", dst[:0])
	}
}
