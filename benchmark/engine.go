package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// epoch anchors the process-wide monotonic clock every stamp, due time
// and span uses.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

const (
	tick          = time.Millisecond // open-loop schedule granularity
	traceEvery    = 64               // spans are kept for 1 event in 64
	drainTimeout  = 5 * time.Second  // wait for in-flight deliveries at the end
	stallTimeout  = 5 * time.Second  // a closed-loop publisher waiting this long has lost events
	recvBatchSize = 256
)

// spec is the fixed definition of a workload. Nothing in it is tuned
// per run: rates and windows are constants so runs stay comparable.
type spec struct {
	name    string
	why     string
	payload int      // bytes per event payload
	topics  []string // concrete topics publishers walk
	pubs    int      // publisher goroutines, one connection each
	rate    int      // open loop: publishes/s over all publishers; 0 = closed loop
	window  int      // closed loop: publishes in flight per publisher
	warmup  int      // publishes per publisher before the measured window
	// layers says how often each layer runs per delivery on this
	// workload; the attribution table multiplies ladder costs by it.
	layers func(fanout, replayed float64) []layerUse
	build  func(ctx context.Context, e *engine) (*rig, error)
}

func (s *spec) loop() string {
	if s.rate > 0 {
		return fmt.Sprintf("open loop, %d publishes/s on a 1 ms tick, %d publishers", s.rate, s.pubs)
	}
	return fmt.Sprintf("closed loop, %d publishers x %d publishes in flight, sent in bursts of %d", s.pubs, s.window, s.burst())
}

// burst is how many publishes a closed-loop publisher sends between
// flushes: half its window, so one burst is in flight while the next
// is being sent; a window of one is lock-step.
func (s *spec) burst() int { return max(1, s.window/2) }

// rig is one built instance of a workload: the program under test,
// started and connected, behind plain functions.
type rig struct {
	pubs     []publisher
	subs     []*subscriber
	fanout   []int                     // per topic: deliveries one publish must cause on measured subscriptions
	startSeq []uint64                  // per publisher: publishes already made during build (prefill)
	counters func() map[string]float64 // cumulative layer counters, read at window boundaries
	close    func()                    // stops the program; every subscriber run func must return
}

// publisher is one publish handle.
type publisher struct {
	publish func(topic int, payload []byte) error
	flush   func() error // nil when publish never buffers
	fresh   bool         // the program keeps a reference to payload: never reuse it
}

// subscriber is one receive handle. run drains it into s until the
// handle closes. Subscribers with replay set restart their checker at
// every pass and expect the stream from its first event.
type subscriber struct {
	topic   int
	delayed bool // latency and jitter are measured on this subscriber
	replay  bool
	run     func(s *sink)
}

// gate is a closed-loop publisher's credit pool. The publisher takes
// credits a burst at a time; subscribers return them one by one.
type gate struct {
	avail atomic.Int64
	burst int64
	wake  chan struct{} // cap 1: "a whole burst of credits is back"
}

// take blocks until a burst of credits is available and takes it;
// false means stop closed or the wait outlasted stallTimeout (events
// were lost for good). Only the owning publisher calls it.
func (g *gate) take(stop <-chan struct{}) bool {
	for g.avail.Load() < g.burst {
		select {
		case <-g.wake:
		case <-stop:
			return false
		case <-time.After(stallTimeout):
			return false
		}
	}
	g.avail.Add(-g.burst)
	return true
}

func (g *gate) release() {
	if g.avail.Add(1) == g.burst {
		select {
		case g.wake <- struct{}{}:
		default:
		}
	}
}

// pubState is one publisher goroutine's bookkeeping.
type pubState struct {
	gate    *gate
	pending []atomic.Int32 // closed loop: deliveries still owed, by seq&mask
	walk    []int          // seeded topic order, repeated cyclically

	sent      atomic.Uint64 // publishes made (including build-time prefill)
	errs      atomic.Uint64
	inflightM int64 // high-water publishes in flight (closed loop)
	lag       hist  // open loop: how late each tick ran, inside windows
	pubNs     int64 // traced window: time inside publish calls
	pubCalls  int64
	spans     []pubSpan
}

// window is one measured interval on a running rig.
type window struct {
	start, dur int64
	traced     bool
	recs       []*recorder // per sink
	before     sample
	after      sample
}

// sample is everything read at a window boundary.
type sample struct {
	at       int64
	counters map[string]float64
	cpuNs    int64   // process user+system CPU (getrusage)
	allocs   uint64  // heap objects allocated
	gcCPUs   float64 // estimated CPU seconds spent in the collector
}

func takeSample(counters func() map[string]float64) sample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	rt := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(rt)
	s := sample{
		at:     nowNs(),
		cpuNs:  ru.Utime.Nano() + ru.Stime.Nano(),
		allocs: rt[0].Value.Uint64(),
		gcCPUs: rt[1].Value.Float64(),
	}
	if counters != nil {
		s.counters = counters()
	}
	return s
}

// engine drives one rig: publishers on their schedule, one sink per
// subscriber, windows opened and closed on the wall clock.
type engine struct {
	spec *spec
	seed int64
	rng  *rand.Rand // build-time choices (membership, walks, joiner phase)
	dir  string     // scratch directory for rigs that write files
	// scale shrinks warm-up, prefill and ladder iterations; 1 everywhere
	// but the smoke test.
	scale float64

	rig     *rig
	pubs    []*pubState
	sinks   []*sink
	fillers [][]byte
	cur     atomic.Pointer[window]
	stop    chan struct{}
	wg      sync.WaitGroup // publisher goroutines
	subWG   sync.WaitGroup // subscriber goroutines

	accounted atomic.Uint64 // stream seqs delivered or skipped on non-replay sinks
}

// sink is the receiving end of one subscriber: checker, recorders and
// trace spans, all owned by the subscriber's goroutine.
type sink struct {
	e    *engine
	idx  int
	sub  *subscriber
	chk  *checker
	offs []int // per publisher: position of sub.topic in that publisher's walk

	// finished replay passes
	passSeen, passCorrect, passMissing, passDups, passBad uint64
	spans                                                 []recvSpan
}

func newEngine(sp *spec, seed int64, dir string, scale float64) *engine {
	return &engine{spec: sp, seed: seed, dir: dir, scale: scale, rng: rand.New(rand.NewSource(seed))}
}

func (e *engine) scaled(n int) int { return max(1, int(float64(n)*e.scale)) }

// stampPayload writes publisher pub's seq-th payload into buf.
func (e *engine) stampPayload(buf []byte, pub int, seq uint64, due int64) {
	t := e.pubs[pub].walk[int((seq-1)%uint64(len(e.spec.topics)))]
	fillPayload(buf, e.fillers[pub], stamp{pub: pub, topic: t, seq: seq, due: due})
}

// start builds the rig, starts sinks and publishers and returns once
// every publisher has made its warm-up publishes.
func (e *engine) start(ctx context.Context) error {
	sp := e.spec
	nt := len(sp.topics)
	e.stop = make(chan struct{})
	e.pubs = make([]*pubState, sp.pubs)
	e.fillers = make([][]byte, sp.pubs)
	for p := range e.pubs {
		ps := &pubState{walk: e.rng.Perm(nt)}
		if sp.rate == 0 {
			ps.gate = &gate{burst: int64(sp.burst()), wake: make(chan struct{}, 1)}
			ps.gate.avail.Store(int64(sp.window))
			size := 1
			for size < sp.window {
				size <<= 1
			}
			ps.pending = make([]atomic.Int32, size)
		}
		e.pubs[p] = ps
		e.fillers[p] = newFiller(e.seed, p, sp.payload)
	}
	r, err := sp.build(ctx, e)
	if err != nil {
		return fmt.Errorf("%s: build: %w", sp.name, err)
	}
	e.rig = r
	for p, ps := range e.pubs {
		ps.sent.Store(e.startSeq(p))
	}
	for i, sub := range r.subs {
		s := &sink{e: e, idx: i, sub: sub, offs: make([]int, sp.pubs)}
		for p, ps := range e.pubs {
			for pos, t := range ps.walk {
				if t == sub.topic {
					s.offs[p] = pos
				}
			}
		}
		s.newPass()
		if !sub.replay {
			// A live subscription joins after any prefill: it expects each
			// publisher's stream from the first event still to come.
			for p, ps := range e.pubs {
				s.chk.next[p] = s.streamIndex(p, ps.sent.Load()) + 1
			}
		}
		e.sinks = append(e.sinks, s)
		e.subWG.Add(1)
		go func() {
			defer e.subWG.Done()
			sub.run(s)
		}()
	}
	for p := range e.pubs {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			if sp.rate > 0 {
				e.runOpen(p)
			} else {
				e.runClosed(p)
			}
		}()
	}
	for p, ps := range e.pubs {
		for ps.sent.Load() < e.startSeq(p)+uint64(e.scaled(sp.warmup)) {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Millisecond):
			}
			if ps.errs.Load() > 0 {
				return fmt.Errorf("%s: publish failed during warm-up", sp.name)
			}
		}
	}
	return nil
}

// streamIndex says how many of publisher p's first seq publishes went
// to this sink's topic.
func (s *sink) streamIndex(p int, seq uint64) uint64 {
	nt := uint64(len(s.e.spec.topics))
	full, rem := seq/nt, seq%nt
	if uint64(s.offs[p]) < rem {
		return full + 1
	}
	return full
}

func (s *sink) newPass() {
	if c := s.chk; c != nil {
		for p := range c.next {
			s.passSeen += c.seen(p)
		}
		s.passCorrect += c.correct
		s.passMissing += c.missing
		s.passDups += c.dups
		s.passBad += c.corrupt + c.misrouted
	}
	s.chk = newChecker(s.sub.topic, s.e.spec.pubs)
}

// enter is called before a receive call; it returns the clock only
// while a traced window is open, so untraced runs pay one atomic load.
func (s *sink) enter() int64 {
	if w := s.e.cur.Load(); w != nil && w.traced {
		return nowNs()
	}
	return 0
}

// deliver accounts for one payload handed to subscriber code by a
// receive call entered at entered (0 when untraced) that returned at
// now.
func (s *sink) deliver(entered, now int64, payload []byte) {
	e := s.e
	st, ok := parsePayload(payload)
	if !ok || st.pub >= len(s.offs) || st.seq == 0 {
		s.chk.corrupt++
		return
	}
	// The payload carries the publisher-wide seq; the checker orders by
	// position in the (publisher, topic) stream.
	nt, off := uint64(len(e.spec.topics)), uint64(s.offs[st.pub])
	wire := st.seq
	st.seq = (wire-1)/nt + 1
	skipped, good := s.chk.check(st)
	if !s.sub.replay {
		for q := st.seq - skipped; q < st.seq; q++ {
			e.credit(st.pub, (q-1)*nt+off+1)
		}
		if good {
			e.credit(st.pub, wire)
			skipped++
		}
		e.accounted.Add(skipped)
	}
	w := e.cur.Load()
	if !good || w == nil {
		return
	}
	w.recs[s.idx].record(now-w.start, now, st)
	if w.traced && entered > 0 && wire%traceEvery == 0 && s.sub.delayed {
		s.spans = append(s.spans, recvSpan{pub: st.pub, seq: wire, sub: s.idx, entered: entered, returned: now})
	}
}

// credit notes that one owed delivery of publisher pub's seq-th
// publish is settled and frees a closed-loop credit with the last one.
func (e *engine) credit(pub int, seq uint64) {
	ps := e.pubs[pub]
	if ps.gate == nil {
		return
	}
	if ps.pending[seq&uint64(len(ps.pending)-1)].Add(-1) == 0 {
		ps.gate.release()
	}
}

func (e *engine) stopped() bool {
	select {
	case <-e.stop:
		return true
	default:
		return false
	}
}

// publishOne makes publisher p's next publish, due at due (0 = now,
// the closed-loop rule: latency runs from Publish call entry).
func (e *engine) publishOne(p int, buf []byte, due int64) {
	ps, pub := e.pubs[p], e.rig.pubs[p]
	seq := ps.sent.Load() + 1
	topic := ps.walk[int((seq-1)%uint64(len(ps.walk)))]
	if pub.fresh {
		buf = make([]byte, e.spec.payload)
	}
	if ps.pending != nil {
		ps.pending[seq&uint64(len(ps.pending)-1)].Store(int32(e.rig.fanout[topic]))
	}
	w := e.cur.Load()
	traced := w != nil && w.traced
	entry := nowNs()
	if due == 0 {
		due = entry
	}
	fillPayload(buf, e.fillers[p], stamp{pub: p, topic: topic, seq: seq, due: due})
	err := pub.publish(topic, buf)
	if traced {
		ret := nowNs()
		ps.pubNs += ret - entry
		ps.pubCalls++
		if seq%traceEvery == 0 {
			ps.spans = append(ps.spans, pubSpan{pub: p, seq: seq, entered: entry, returned: ret})
		}
	}
	ps.sent.Store(seq)
	if err != nil {
		ps.errs.Add(1)
		// Nothing will be delivered: settle the deliveries it owed.
		for i := 0; i < e.rig.fanout[topic]; i++ {
			e.credit(p, seq)
		}
	}
}

// runClosed keeps at most spec.window publishes in flight: the
// publisher sends a burst, flushes, and sends the next burst once that
// many deliveries have completed everywhere. A
// credit per single completion would degenerate into one-event batches
// whose size depends on scheduling, which is neither how a batching
// sender behaves nor repeatable.
func (e *engine) runClosed(p int) {
	ps, pub := e.pubs[p], e.rig.pubs[p]
	buf := make([]byte, e.spec.payload)
	for !e.stopped() {
		if !ps.gate.take(e.stop) {
			if !e.stopped() {
				ps.errs.Add(1) // stalled: the missing deliveries show up as loss
			}
			break
		}
		if in := int64(e.spec.window) - ps.gate.avail.Load(); in > ps.inflightM {
			ps.inflightM = in
		}
		for i := int64(0); i < ps.gate.burst; i++ {
			e.publishOne(p, buf, 0)
		}
		if pub.flush != nil {
			if err := pub.flush(); err != nil {
				ps.errs.Add(1)
			}
		}
	}
}

func (e *engine) runOpen(p int) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ps := e.pubs[p]
	buf := make([]byte, e.spec.payload)
	perTick := float64(e.spec.rate) * e.scale / float64(time.Second/tick) / float64(e.spec.pubs)
	// Publishers share the tick length but are staggered inside it, as
	// independent senders would be.
	first := nowNs() + int64(tick) + int64(p)*int64(tick)/int64(e.spec.pubs)
	var owed float64
	for k := int64(0); !e.stopped(); k++ {
		due := first + k*int64(tick)
		sleepUntil(due)
		if w := e.cur.Load(); w != nil {
			ps.lag.add(nowNs() - due)
		}
		for owed += perTick; owed >= 1; owed-- {
			e.publishOne(p, buf, due)
		}
	}
}

// measure opens a window of the given length on the running rig and
// blocks until it has passed.
func (e *engine) measure(ctx context.Context, dur time.Duration, traced bool) (*window, error) {
	w := &window{dur: int64(dur), traced: traced}
	slices := int(dur / time.Second)
	if slices < 1 {
		slices = 1
	}
	for _, s := range e.sinks {
		w.recs = append(w.recs, newRecorder(slices, e.spec.pubs, s.sub.delayed))
	}
	w.before = takeSample(e.rig.counters)
	w.start = nowNs()
	e.cur.Store(w)
	select {
	case <-time.After(dur):
	case <-ctx.Done():
		e.cur.Store(nil)
		return nil, ctx.Err()
	}
	e.cur.Store(nil)
	w.after = takeSample(e.rig.counters)
	return w, nil
}

// tally is the outcome of the correctness self-check over everything
// the rig published, warm-up included.
type tally struct {
	Expected  uint64 `json:"expected_deliveries"`
	Correct   uint64 `json:"correct_deliveries"`
	Missing   uint64 `json:"missing"`
	Dups      uint64 `json:"duplicates"`
	Bad       uint64 `json:"corrupt_or_misrouted"`
	PubErrors uint64 `json:"publish_errors"`
}

func (t tally) failed() uint64 {
	f := t.Dups + t.PubErrors
	if t.Expected > t.Correct {
		f += t.Expected - t.Correct
	}
	return f
}

// finish stops the publishers, waits for in-flight deliveries, shuts
// the rig down and returns the self-check tally.
func (e *engine) finish() tally {
	close(e.stop)
	e.wg.Wait()
	// What every live subscription is owed: each publish made since the
	// build, once per subscription of its topic.
	var owed uint64
	for _, s := range e.sinks {
		if s.sub.replay {
			continue
		}
		for p, ps := range e.pubs {
			owed += s.streamIndex(p, ps.sent.Load()) - s.streamIndex(p, e.startSeq(p))
		}
	}
	for deadline := time.Now().Add(drainTimeout); e.accounted.Load() < owed && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	e.rig.close()
	e.subWG.Wait()

	t := tally{Expected: owed}
	for _, ps := range e.pubs {
		t.PubErrors += ps.errs.Load()
	}
	for _, s := range e.sinks {
		s.newPass() // fold the last pass into the totals
		t.Correct += s.passCorrect
		t.Dups += s.passDups
		t.Bad += s.passBad
		t.Missing += s.passMissing
		if s.sub.replay {
			// A replay pass must hold every seq from the first to the
			// last one it saw, exactly once.
			t.Expected += s.passSeen
		}
	}
	return t
}

func (e *engine) startSeq(p int) uint64 {
	if e.rig.startSeq == nil {
		return 0
	}
	return e.rig.startSeq[p]
}

// sleepUntil blocks the calling thread in nanosleep until the
// monotonic instant due. Go's timers round to the netpoller's
// millisecond timeout when the process is idle, which on a 1 ms tick
// made the median tick 0.5 ms late; nanosleep on a locked thread holds
// the median lag near 0.1 ms.
func sleepUntil(due int64) {
	for d := due - nowNs(); d > 0; d = due - nowNs() {
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // a signal may cut the sleep short: the loop sleeps the rest
	}
}
