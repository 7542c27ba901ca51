package main

import (
	"context"
	"math"
	"testing"
	"time"
)

// The checker must catch one dropped and one duplicated event.
func TestCheckerCatchesDropAndDuplicate(t *testing.T) {
	filler := newFiller(1, 0, 200)
	buf := make([]byte, len(filler))
	c := newChecker(0, 1)
	var skipped uint64
	for _, seq := range []uint64{1, 2, 4, 5, 5, 6} { // 3 is dropped, 5 arrives twice
		fillPayload(buf, filler, stamp{seq: seq, due: 7})
		st, ok := parsePayload(buf)
		if !ok || st.seq != seq || st.due != 7 {
			t.Fatalf("payload %d did not survive a round trip: %+v ok=%v", seq, st, ok)
		}
		s, _ := c.check(st)
		skipped += s
	}
	if c.missing != 1 || skipped != 1 {
		t.Errorf("dropped event: missing=%d skipped=%d, want 1 and 1", c.missing, skipped)
	}
	if c.dups != 1 {
		t.Errorf("duplicated event: dups=%d, want 1", c.dups)
	}
	if c.correct != 5 || c.seen(0) != 6 {
		t.Errorf("correct=%d seen=%d, want 5 and 6", c.correct, c.seen(0))
	}
	if got := (tally{Expected: 6, Correct: c.correct, Dups: c.dups}).failed(); got != 2 {
		t.Errorf("tally counts %d failures, want 2 (one missing, one duplicate)", got)
	}

	buf[len(buf)-1] ^= 1 // one flipped payload bit
	if _, ok := parsePayload(buf); ok {
		t.Error("a corrupted payload passed the checksum")
	}
	fillPayload(buf, filler, stamp{topic: 3, seq: 7})
	st, _ := parsePayload(buf)
	if _, ok := c.check(st); ok || c.misrouted != 1 {
		t.Errorf("an event of another topic was accepted (misrouted=%d)", c.misrouted)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.add(v * 100)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		want := q * 100_000 * 100
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1%%", q, got, want)
		}
	}
}

// Every room must have four distinct listeners and every connection
// eight rooms: the zero-loss window arithmetic depends on it.
func TestRoomMembership(t *testing.T) {
	for seed := int64(1); seed < 50; seed++ {
		m := roomMembership(newEngine(findSpec("rooms-flood"), seed, "", 1))
		perConn := map[int]int{}
		for room, list := range m {
			seen := map[int]bool{}
			for _, c := range list {
				if seen[c] {
					t.Fatalf("seed %d room %d: connection %d listens twice", seed, room, c)
				}
				seen[c] = true
				perConn[c]++
			}
			if len(list) != 4 {
				t.Fatalf("seed %d room %d: %d listeners", seed, room, len(list))
			}
		}
		for c, n := range perConn {
			if n != roomsPerConn {
				t.Fatalf("seed %d: connection %d holds %d rooms", seed, c, n)
			}
		}
	}
}

// Every workload runs briefly and one of them traced, so the plain test
// and race jobs cover the harness: each metric BENCHMARK.json names
// must be emitted with its unit and the self-check must pass.
func TestSmoke(t *testing.T) {
	c, err := readContract()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(specs))
	}
	checkSet := func(t *testing.T, got metricSet, want []contractMetric) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(got), len(want))
		}
		for _, m := range want {
			if g, ok := got[m.Name]; !ok {
				t.Errorf("metric %s is not emitted", m.Name)
			} else if g.Unit != m.Unit {
				t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
			}
		}
	}
	for i, w := range c.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			sp := findSpec(w.Name)
			if sp == nil || sp != specs[i] {
				t.Fatalf("workload %q is missing or out of order", w.Name)
			}
			if sp.why != w.Why {
				t.Errorf("why differs from BENCHMARK.json:\n%s\n%s", sp.why, w.Why)
			}
			traced := w.Name == "lecture-flood"
			dur := 300 * time.Millisecond
			if traced {
				dur *= 2
			}
			res, err := runWorkload(context.Background(), sp, 1, dur, traced, 1, 0.02)
			if err != nil {
				t.Fatal(err)
			}
			if f := res.Tally.failed(); f != 0 || res.Tally.Expected == 0 {
				t.Errorf("self-check: %d of %d deliveries failed: %+v", f, res.Tally.Expected, res.Tally)
			}
			checkSet(t, res.EndToEnd, c.EndToEnd)
			for name, m := range res.EndToEnd {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want a positive number", name, m.Value)
				}
			}
			if traced {
				checkSet(t, res.PerLayer, c.PerLayer)
				if len(res.Attribution) == 0 {
					t.Error("a traced run printed no attribution table")
				}
			}
		})
	}
}
