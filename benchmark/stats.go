package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear histogram of nanosecond durations: 64 buckets
// per power of two (bucket width <= 1.6 % of its value), exact below
// 128 ns. Quantiles interpolate inside the bucket by rank, so they are
// continuous rather than snapped to bucket edges.
type hist struct {
	n       uint64
	max     int64
	buckets [histBuckets]uint32
}

const (
	histSub     = 64
	histBuckets = 36 * histSub // covers up to 2^41 ns (~37 min)
)

func histIndex(v int64) int {
	if v < 2*histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 7 // v>>e lands in [64,128)
	i := (e+1)*histSub + int(v>>e) - histSub
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histBounds returns the [lo, hi) nanosecond range of bucket i.
func histBounds(i int) (lo, hi float64) {
	if i < 2*histSub {
		return float64(i), float64(i + 1)
	}
	e := i/histSub - 1
	m := i%histSub + histSub
	return float64(int64(m) << e), float64(int64(m+1) << e)
}

func (h *hist) add(v int64) {
	h.buckets[histIndex(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile in nanoseconds (NaN when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := histBounds(i)
			if hi > float64(h.max) && float64(h.max) >= lo {
				hi = float64(h.max)
			}
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return float64(h.max)
}

// recorder accumulates one subscription's view of the measured
// window, per one-second slice: deliveries, a delay histogram, and the
// |D(i) - D(i-1)| of successive delays of each publisher's stream. It is
// owned by the subscription's receive goroutine.
type recorder struct {
	counts []uint64
	delays []hist    // nil for subscriptions whose delay is not measured
	jitSum []float64 // sum of |D(i) - D(i-1)|, ns
	jitN   []uint64

	last    []int64 // per publisher: previous delay, -1 before the first
	delayed bool
}

func newRecorder(slices, pubs int, delayed bool) *recorder {
	r := &recorder{counts: make([]uint64, slices), delayed: delayed}
	if delayed {
		r.delays = make([]hist, slices)
		r.jitSum = make([]float64, slices)
		r.jitN = make([]uint64, slices)
		r.last = make([]int64, pubs)
		for i := range r.last {
			r.last[i] = -1
		}
	}
	return r
}

// record notes a correct delivery that returned to subscriber code at
// monotonic instant now, sinceStart nanoseconds into the window.
func (r *recorder) record(sinceStart, now int64, s stamp) {
	slice := int(sinceStart / 1e9)
	if sinceStart < 0 || slice >= len(r.counts) {
		return
	}
	r.counts[slice]++
	if !r.delayed {
		return
	}
	d := now - s.due
	r.delays[slice].add(d)
	if prev := r.last[s.pub]; prev >= 0 {
		r.jitSum[slice] += math.Abs(float64(d - prev))
		r.jitN[slice]++
	}
	r.last[s.pub] = d
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile with the same
// "exclusive" method as Python's statistics.quantiles(v, n=4), the
// rule the acceptance check uses. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(pos)
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// spread is the interquartile distance as a share of the median; with
// fewer than four values it falls back to the full range.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 || math.IsNaN(m) {
		return 0
	}
	if len(v) < 4 {
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		return (s[len(s)-1] - s[0]) / math.Abs(m)
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}
