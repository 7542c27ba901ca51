package topic

import (
	"fmt"
	"strings"
	"testing"

	"github.com/globalmmcs/globalmmcs/internal/testutil"
)

// splitReference is the validation this package shipped before the
// one-pass scan: split first, then judge the segments. The scan must
// return the same error, message included, for every input.
func splitReference(s string, allowWildcards bool) error {
	if s == "" {
		return ErrEmpty
	}
	if s[0] != '/' {
		return ErrNoLeadingSlash
	}
	segs := strings.Split(s[1:], "/")
	if len(segs) > MaxSegments {
		return ErrTooDeep
	}
	for i, seg := range segs {
		switch {
		case seg == "":
			return fmt.Errorf("%w (segment %d of %q)", ErrEmptySegment, i, s)
		case seg == Single || seg == Rest:
			if !allowWildcards {
				return fmt.Errorf("%w (%q)", ErrWildcard, s)
			}
			if seg == Rest && i != len(segs)-1 {
				return fmt.Errorf("%w (%q)", ErrRestNotLast, s)
			}
		}
	}
	return nil
}

func TestValidateMatchesReference(t *testing.T) {
	deep := strings.Repeat("/s", MaxSegments)
	inputs := []string{
		"", "a", "a/b", "/", "//", "/a", "/a/", "/a//b", "//a", "/a/b/c",
		"/*", "/#", "/a/*", "/a/#", "/a/#/b", "/#/a", "/a/*/b/#", "/a/**", "/a/#x", "/a/x#", "/*/#",
		"/a/#/", "/a//#", "/#/#", "/*/", "/a/ /b",
		deep, deep + "/s", deep + "/", deep + "//", deep + "/#", deep + "/s/#/s", "/*" + deep,
	}
	for _, in := range inputs {
		for _, wild := range []bool{false, true} {
			got, want := validate(in, wild), splitReference(in, wild)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("validate(%q, %v) = %v, reference says %v", in, wild, got, want)
			}
			segs, err := Split(in, wild)
			if fmt.Sprint(err) != fmt.Sprint(want) {
				t.Errorf("Split(%q, %v) error = %v, reference says %v", in, wild, err, want)
			}
			if err == nil && strings.Join(segs, "/") != in[1:] {
				t.Errorf("Split(%q) = %q", in, segs)
			}
		}
	}
}

func BenchmarkValidateTopic(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		if err := ValidateTopic("/bench/room/17/audio"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestValidateTopicAllocs(t *testing.T) {
	testutil.SkipAllocGateUnderRace(t)
	topics := []string{"/bench/room/17/audio", "/xgsp/session/42/video", "/a", strings.Repeat("/seg", MaxSegments)}
	got := testing.AllocsPerRun(100, func() {
		for _, s := range topics {
			if err := ValidateTopic(s); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got != 0 {
		t.Fatalf("ValidateTopic allocated %.1f times on valid topics, want 0", got)
	}
}
