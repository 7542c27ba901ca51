// Package topic implements the hierarchical topic namespace and the
// subscription-matching engine used by the broker. Topics are
// slash-separated paths such as "/xgsp/session/42/video". Subscription
// patterns may use two wildcards:
//
//   - "*" matches exactly one segment: "/xgsp/session/*/video"
//   - "#" matches any suffix (zero or more segments) and must be the final
//     segment: "/xgsp/session/42/#"
//
// The matcher is a trie keyed by segment so that Match cost is bounded by
// topic depth, not subscription count.
package topic

import (
	"errors"
	"fmt"
	"strings"
)

// Wildcard segments.
const (
	// Single matches exactly one segment.
	Single = "*"
	// Rest matches any remaining suffix, including the empty one.
	Rest = "#"
)

// MaxSegments bounds topic depth to keep matching and wire costs small.
const MaxSegments = 16

// Validation errors.
var (
	ErrEmpty          = errors.New("topic: empty topic")
	ErrNoLeadingSlash = errors.New("topic: must start with '/'")
	ErrEmptySegment   = errors.New("topic: empty segment")
	ErrTooDeep        = fmt.Errorf("topic: more than %d segments", MaxSegments)
	ErrWildcard       = errors.New("topic: wildcard not allowed in concrete topic")
	ErrRestNotLast    = errors.New("topic: '#' must be the final segment")
)

// Split parses a topic or pattern into segments, validating shape.
// allowWildcards controls whether "*" and "#" are legal.
func Split(s string, allowWildcards bool) ([]string, error) {
	if err := validate(s, allowWildcards); err != nil {
		return nil, err
	}
	return strings.Split(s[1:], "/"), nil
}

// validate checks the shape of a topic or pattern in one pass over its
// bytes, allocating only to describe a failure. Depth outranks a
// malformed segment, and among segments the first malformed one is
// reported.
func validate(s string, allowWildcards bool) error {
	if s == "" {
		return ErrEmpty
	}
	if s[0] != '/' {
		return ErrNoLeadingSlash
	}
	var bad error // the first malformed segment's error, and its index
	badSeg, segs := 0, 0
	for start := 1; start <= len(s); segs++ {
		end := start
		for end < len(s) && s[end] != '/' {
			end++
		}
		if bad == nil {
			switch seg := s[start:end]; {
			case seg == "":
				bad, badSeg = ErrEmptySegment, segs
			case seg != Single && seg != Rest:
			case !allowWildcards:
				bad = ErrWildcard
			case seg == Rest && end != len(s):
				bad = ErrRestNotLast
			}
		}
		start = end + 1
	}
	switch {
	case segs > MaxSegments:
		return ErrTooDeep
	case bad == ErrEmptySegment:
		return fmt.Errorf("%w (segment %d of %q)", bad, badSeg, s)
	case bad != nil:
		return fmt.Errorf("%w (%q)", bad, s)
	}
	return nil
}

// ValidateTopic checks a concrete (publishable) topic.
func ValidateTopic(s string) error { return validate(s, false) }

// ValidatePattern checks a subscription pattern.
func ValidatePattern(s string) error { return validate(s, true) }

// MatchPattern reports whether the concrete topic matches the pattern.
// Both must be well-formed; malformed input reports false.
func MatchPattern(pattern, topic string) bool {
	ps, err := Split(pattern, true)
	if err != nil {
		return false
	}
	ts, err := Split(topic, false)
	if err != nil {
		return false
	}
	return matchSegs(ps, ts)
}

func matchSegs(ps, ts []string) bool {
	for i, p := range ps {
		if p == Rest {
			return true // matches any suffix, including empty
		}
		if i >= len(ts) {
			return false
		}
		if p != Single && p != ts[i] {
			return false
		}
	}
	return len(ps) == len(ts)
}

// Join builds a topic from segments, e.g. Join("xgsp", "session", id).
func Join(segs ...string) string {
	return "/" + strings.Join(segs, "/")
}

// node is one trie level.
type node[V comparable] struct {
	children map[string]*node[V]
	// exact holds subscribers whose pattern ends exactly here.
	exact map[V]struct{}
	// rest holds subscribers whose pattern ends with "#" here.
	rest map[V]struct{}
}

func newNode[V comparable]() *node[V] {
	return &node[V]{}
}

func (n *node[V]) child(seg string) *node[V] {
	if n.children == nil {
		n.children = make(map[string]*node[V])
	}
	c, ok := n.children[seg]
	if !ok {
		c = newNode[V]()
		n.children[seg] = c
	}
	return c
}

func (n *node[V]) empty() bool {
	return len(n.children) == 0 && len(n.exact) == 0 && len(n.rest) == 0
}

// Trie maps subscription patterns to subscriber values of type V. It is
// not safe for concurrent use; the broker guards it with its own lock.
type Trie[V comparable] struct {
	root *node[V]
	size int
}

// NewTrie returns an empty subscription trie.
func NewTrie[V comparable]() *Trie[V] {
	return &Trie[V]{root: newNode[V]()}
}

// Len returns the number of (pattern, subscriber) entries.
func (t *Trie[V]) Len() int { return t.size }

// Add registers subscriber v under pattern. Adding the same (pattern, v)
// twice is a no-op. Returns an error for malformed patterns.
func (t *Trie[V]) Add(pattern string, v V) error {
	segs, err := Split(pattern, true)
	if err != nil {
		return err
	}
	n := t.root
	for i, seg := range segs {
		if seg == Rest {
			// Rest is validated to be last.
			_ = i
			if n.rest == nil {
				n.rest = make(map[V]struct{})
			}
			if _, dup := n.rest[v]; !dup {
				n.rest[v] = struct{}{}
				t.size++
			}
			return nil
		}
		n = n.child(seg)
	}
	if n.exact == nil {
		n.exact = make(map[V]struct{})
	}
	if _, dup := n.exact[v]; !dup {
		n.exact[v] = struct{}{}
		t.size++
	}
	return nil
}

// Remove unregisters subscriber v from pattern. It reports whether the
// entry existed. Malformed patterns report false.
func (t *Trie[V]) Remove(pattern string, v V) bool {
	segs, err := Split(pattern, true)
	if err != nil {
		return false
	}
	return t.remove(t.root, segs, v)
}

func (t *Trie[V]) remove(n *node[V], segs []string, v V) bool {
	if len(segs) == 0 {
		if _, ok := n.exact[v]; ok {
			delete(n.exact, v)
			t.size--
			return true
		}
		return false
	}
	seg := segs[0]
	if seg == Rest {
		if _, ok := n.rest[v]; ok {
			delete(n.rest, v)
			t.size--
			return true
		}
		return false
	}
	c, ok := n.children[seg]
	if !ok {
		return false
	}
	removed := t.remove(c, segs[1:], v)
	if removed && c.empty() {
		delete(n.children, seg)
	}
	return removed
}

// RemoveAll unregisters subscriber v from every pattern and returns how
// many entries were removed. Used when a client disconnects.
func (t *Trie[V]) RemoveAll(v V) int {
	removed := removeAllNode(t.root, v)
	t.size -= removed
	return removed
}

func removeAllNode[V comparable](n *node[V], v V) int {
	removed := 0
	if _, ok := n.exact[v]; ok {
		delete(n.exact, v)
		removed++
	}
	if _, ok := n.rest[v]; ok {
		delete(n.rest, v)
		removed++
	}
	for seg, c := range n.children {
		removed += removeAllNode(c, v)
		if c.empty() {
			delete(n.children, seg)
		}
	}
	return removed
}

// Match appends to dst every subscriber whose pattern matches the concrete
// topic, and returns the extended slice. A subscriber registered under
// several matching patterns appears once. Malformed topics match nothing.
func (t *Trie[V]) Match(topic string, dst []V) []V {
	segs, err := Split(topic, false)
	if err != nil {
		return dst
	}
	seen := make(map[V]struct{}, 8)
	t.match(t.root, segs, seen)
	for v := range seen {
		dst = append(dst, v)
	}
	return dst
}

// MatchFunc calls fn once for each distinct subscriber matching topic.
func (t *Trie[V]) MatchFunc(topic string, fn func(V)) {
	segs, err := Split(topic, false)
	if err != nil {
		return
	}
	seen := make(map[V]struct{}, 8)
	t.match(t.root, segs, seen)
	for v := range seen {
		fn(v)
	}
}

func (t *Trie[V]) match(n *node[V], segs []string, seen map[V]struct{}) {
	for v := range n.rest {
		seen[v] = struct{}{}
	}
	if len(segs) == 0 {
		for v := range n.exact {
			seen[v] = struct{}{}
		}
		return
	}
	if c, ok := n.children[segs[0]]; ok {
		t.match(c, segs[1:], seen)
	}
	if c, ok := n.children[Single]; ok {
		t.match(c, segs[1:], seen)
	}
}
