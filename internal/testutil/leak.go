// Package testutil holds shared test helpers.
package testutil

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// CheckGoroutines snapshots the goroutine count and registers a cleanup
// that fails the test if the count has not returned to (or below) the
// baseline within a grace window — the cheap whole-test leak detector
// for close paths, link churn and reconnect loops. Call it FIRST in the
// test (cleanups run LIFO, so resources registered after it are torn
// down before the check runs). Tests using it must not run in parallel
// with unrelated goroutine churn.
func CheckGoroutines(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		var n int
		for {
			n = runtime.NumGoroutine()
			if n <= base {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d at start, %d after cleanup\n%s", base, n, stacks())
	})
}

// stacks dumps every goroutine's stack, trimmed to keep failures
// readable.
func stacks() string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	s := string(buf)
	if parts := strings.Split(s, "\n\n"); len(parts) > 40 {
		s = strings.Join(parts[:40], "\n\n") + fmt.Sprintf("\n\n... %d more goroutines", len(parts)-40)
	}
	return s
}

// SkipAllocGateUnderRace skips an allocation-count gate when the race
// detector, which inflates the counts, is on.
func SkipAllocGateUnderRace(t *testing.T) {
	t.Helper()
	if RaceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
}
