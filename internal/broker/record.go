package broker

import (
	"errors"
	"io"
	"strings"
	"sync"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/metrics"
	"github.com/globalmmcs/globalmmcs/internal/topic"
	"github.com/globalmmcs/globalmmcs/internal/topiclog"
)

// The durable-log record plane. Recording rides the burst plane: for
// every recorder on a routed event's route entry (the recorders whose
// pattern matches its topic), the route sweep stages the event's
// encode-once frame bytes per recorder, and finish() appends each
// recorder's staged run in ONE topiclog.Append (one file write, one log
// lock) per burst — recording a 256-event burst costs the same lock
// cadence as delivering it.
//
// Replay rides the reliable lane, and a replayed byte is copied once
// broker-side: from the page cache into the buffer that is the wire
// frame. The on-disk record framing (seq|len|crc|payload) is already
// the data envelope's payload framing, so a session's replay pump
// preads whole records into the payload region of a pooled frame buffer
// (Cursor.ReadFramed, one CRC verify per record), event.NewFrameAround
// writes the envelope header into the headroom before them and the
// rseq slot after, and the session stamps the rseq in place. Per
// envelope: three copies (page cache → frame → conn write buffer →
// socket), two CRC passes (this one and the client's end-to-end one)
// and one allocation, the Frame. The reliable window owns the buffer
// from enqueue until the cumulative ack, and handleAck gives it back to
// envelopePool only once it was sent exactly once and the writer has
// flushed it (DESIGN.md §5.3 states the rule).
// History is never shed broker-side and stays FIFO with the repLive
// handoff marker. When the cursor reaches the committed tail the pump
// attaches it as a log tailer under the log's append lock: every
// append from then on hands its framed batch to the session
// synchronously, which is what makes the cursor→live switch
// exactly-once (no frame can slip between "history drained" and "tail
// attached" — the append lock is the serialization point).

// recorder is one recorded topic pattern and its backing log.
type recorder struct {
	pattern string
	log     *topiclog.Log

	appended     *metrics.Counter
	segGauge     *metrics.Gauge
	bytesGauge   *metrics.Gauge
	cursorsGauge *metrics.Gauge
	reapedGauge  *metrics.Gauge
}

// recordPlane is the broker's set of recorders. The pattern set is
// fixed at construction, so a route sweep resolves a topic's recorders
// once, when it creates the topic's route entry, and never again.
type recordPlane struct {
	recorders []*recorder
	byPattern map[string]*recorder

	appendErrs *metrics.Counter
}

// newRecordPlane opens one log per configured pattern under
// cfg.RecordDir. A pattern whose log fails to open (or fails
// validation) is skipped and counted in broker.log.open_errors —
// recording is an observer of the data path and must not stop the
// broker from starting.
func newRecordPlane(cfg Config, reg *metrics.Registry) *recordPlane {
	rp := &recordPlane{
		byPattern:  make(map[string]*recorder),
		appendErrs: reg.Counter("broker.log.append_errors"),
	}
	openErrs := reg.Counter("broker.log.open_errors")
	for _, pattern := range cfg.RecordPatterns {
		if _, dup := rp.byPattern[pattern]; dup {
			continue
		}
		if topic.ValidatePattern(pattern) != nil || isControlTopic(pattern) {
			openErrs.Inc()
			continue
		}
		dir := cfg.RecordDir + "/" + patternDirName(pattern)
		log, err := topiclog.Open(dir, topiclog.Config{
			SegmentMaxBytes: cfg.RecordSegmentBytes,
			MaxSegments:     cfg.RecordMaxSegments,
			MaxBytes:        cfg.RecordMaxBytes,
		})
		if err != nil {
			openErrs.Inc()
			continue
		}
		r := &recorder{
			pattern:      pattern,
			log:          log,
			appended:     reg.Counter("broker.log." + pattern + ".appended"),
			segGauge:     reg.Gauge("broker.log." + pattern + ".segments"),
			bytesGauge:   reg.Gauge("broker.log." + pattern + ".bytes"),
			cursorsGauge: reg.Gauge("broker.log." + pattern + ".active_cursors"),
			reapedGauge:  reg.Gauge("broker.log." + pattern + ".reaped"),
		}
		rp.recorders = append(rp.recorders, r)
		rp.byPattern[pattern] = r
	}
	return rp
}

// patternDirName maps a topic pattern to a filesystem directory name:
// safe characters pass through, everything else (slashes, wildcards)
// is percent-escaped.
func patternDirName(pattern string) string {
	var sb strings.Builder
	const hex = "0123456789ABCDEF"
	for i := 0; i < len(pattern); i++ {
		c := pattern[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			sb.WriteByte(c)
		default:
			sb.WriteByte('%')
			sb.WriteByte(hex[c>>4])
			sb.WriteByte(hex[c&0xF])
		}
	}
	return sb.String()
}

// match returns the recorders whose pattern matches a concrete topic.
func (rp *recordPlane) match(t string) []*recorder {
	var rs []*recorder
	for _, r := range rp.recorders {
		if topic.MatchPattern(r.pattern, t) {
			rs = append(rs, r)
		}
	}
	return rs
}

// recorderFor resolves an exactly-matching recorded pattern (replay
// attaches to one recorded log, not a topic expression over them).
func (rp *recordPlane) recorderFor(pattern string) *recorder {
	return rp.byPattern[pattern]
}

// refresh runs retention reaping and republishes the per-log gauges.
// Called from housekeeping with no broker lock held (gauge updates
// take the registry mutex, and Reap takes each log's).
func (rp *recordPlane) refresh() {
	for _, r := range rp.recorders {
		r.log.Reap()
		st := r.log.Stats()
		r.segGauge.Set(int64(st.Segments))
		r.bytesGauge.Set(st.Bytes)
		r.cursorsGauge.Set(int64(st.ActiveCursors))
		r.reapedGauge.Set(int64(st.Reaped))
	}
}

func (rp *recordPlane) close() {
	for _, r := range rp.recorders {
		r.log.Close()
	}
}

// TopicLog exposes the durable log behind a recorded pattern (nil when
// the pattern is not recorded). Benchmarks and operational tooling use
// it to read sequences and stats; the log's cursors are owned by the
// replay plane.
func (b *Broker) TopicLog(pattern string) *topiclog.Log {
	if b.rec == nil {
		return nil
	}
	if r := b.rec.recorderFor(pattern); r != nil {
		return r.log
	}
	return nil
}

// ---- Session-side replay streams ----

// replayEnvelopeTarget is the size of the frame buffer a pump reads
// history into (headroom, records, rseq slot: one pooled 64 KiB buffer
// per envelope); replayEnvelopeMax is the hard cap on an envelope's records
// (the wire payload limit), reached only by a buffer grown for a single
// record larger than the target. replayHeadroom holds the envelope's
// header, whose shape is fixed and under 80 bytes.
//
// replayMaxInflight bounds unacked reliable events while a pump is
// draining history. The reliable window itself (default 4096) is sized
// for sparse signalling events; envelopes are ~64KiB each, so filling
// half the window would put >100MiB in flight — queueing delay alone
// then pushes acks past the retransmit RTO and the link collapses into
// resending history it already delivered. 1 MiB keeps the pipe full
// (far above a LAN's bandwidth-delay product); every envelope more is
// writer-pool work ahead of live events (DESIGN.md §5.3 has the curve). A
// full window is polled every replayBackoff, not woken by the ack:
// §5.3 records why (the wake-up took the live stream's latency back).
const (
	replayEnvelopeTarget = 64 << 10
	replayEnvelopeMax    = event.MaxPayloadLen
	replayHeadroom       = 96
	replayMaxInflight    = 1 << 20 / replayEnvelopeTarget
	replayBackoff        = time.Millisecond
)

// envelopeBuf is a replay pump's regular frame buffer. Only buffers of
// exactly this size are pooled: a buffer grown for one oversized record
// and deliverTail's exact-size copies are left to the collector.
type envelopeBuf [replayEnvelopeTarget]byte

// envelopePool recycles pump buffers across every session and broker in
// the process. A buffer goes in only when no reader is left: unused by
// its pump, or acknowledged under handleAck's rule. Its stale bytes are
// never sent — a frame covers only what the pump wrote into it.
var envelopePool = sync.Pool{New: func() any { return new(envelopeBuf) }}

// sessionReplay is one client replay stream on a session.
type sessionReplay struct {
	id  uint64
	cur *topiclog.Cursor
	// env is the stream's data envelope minus its payload, built once:
	// every envelope shares it (read-only) as the header template.
	env *event.Event
	// stop is closed by stopReplay/teardown; the pump selects on it.
	stop chan struct{}
	// stopped/attached are guarded by the session's replayMu. attached
	// means the pump handed the cursor off as a log tailer and exited —
	// from then on stopReplay owns closing the cursor.
	stopped  bool
	attached bool
}

// startReplay handles a repStart control request: resolve the recorded
// pattern, open a cursor at the requested sequence, and launch the
// pump. Replies repOK/repErr on the reliable lane.
func (s *session) startReplay(e *event.Event) {
	id, err := headerUint(e, hdrReplay)
	if err != nil {
		return
	}
	from, _ := headerUint(e, hdrFrom)
	pattern := e.Headers[hdrPattern]
	var r *recorder
	if s.b.rec != nil {
		r = s.b.rec.recorderFor(pattern)
	}
	if r == nil {
		s.b.Metrics().Counter("broker.bad_replays").Inc()
		s.sendReliable(replayReplyEvent(repErr, id, "pattern not recorded: "+pattern))
		return
	}
	sr := &sessionReplay{id: id, cur: r.log.NewCursor(from), env: replayDataEvent(id, nil), stop: make(chan struct{})}
	s.replayMu.Lock()
	if s.replays == nil {
		s.replays = make(map[uint64]*sessionReplay)
	}
	if _, dup := s.replays[id]; dup {
		s.replayMu.Unlock()
		sr.cur.Close()
		s.sendReliable(replayReplyEvent(repErr, id, "duplicate replay id"))
		return
	}
	s.replays[id] = sr
	s.replayMu.Unlock()
	s.sendReliable(replayReplyEvent(repOK, id, ""))
	s.wg.Add(1)
	go s.replayPump(sr)
}

// stopReplay handles a repStop request (and Unsubscribe of a replay
// subscription): signal the pump, and close the cursor directly when
// the stream already handed off to tail delivery.
func (s *session) stopReplay(id uint64) {
	s.replayMu.Lock()
	sr := s.replays[id]
	if sr == nil {
		s.replayMu.Unlock()
		return
	}
	delete(s.replays, id)
	already := sr.stopped
	sr.stopped = true
	attached := sr.attached
	s.replayMu.Unlock()
	if !already {
		close(sr.stop)
	}
	if attached {
		sr.cur.Close()
	}
}

// teardownReplays stops every replay stream at session close. It runs
// on its own goroutine: an attached stream's tail delivery can itself
// close the session from inside the log's append lock (reliable
// window overflow), and closing a cursor needs that same lock —
// tearing down inline would deadlock.
func (s *session) teardownReplays() {
	s.replayMu.Lock()
	srs := make([]*sessionReplay, 0, len(s.replays))
	for _, sr := range s.replays {
		srs = append(srs, sr)
		if !sr.stopped {
			sr.stopped = true
			close(sr.stop)
		}
	}
	s.replays = nil
	s.replayMu.Unlock()
	for _, sr := range srs {
		sr.cur.Close()
	}
}

// finishReplay is the pump's own cleanup on error or stop before the
// tail handoff.
func (s *session) finishReplay(sr *sessionReplay) {
	s.replayMu.Lock()
	delete(s.replays, sr.id)
	s.replayMu.Unlock()
	sr.cur.Close()
}

// replayPump drains history from the cursor into reliable data
// envelopes, self-pacing against the session's reliable window, then
// performs the tail handoff: once the cursor reports the committed
// tail, AttachTail registers live delivery under the log's append lock
// — if an append slipped in between, the attach fails and the pump
// keeps draining. On success the pump sends repLive and exits; the log
// now delivers the stream synchronously from Append.
func (s *session) replayPump(sr *sessionReplay) {
	defer s.wg.Done()
	backoff := time.NewTimer(replayBackoff)
	defer backoff.Stop()
	// buf is the frame buffer the next step fills. A framed session gives
	// it up with each envelope; an unframed one reuses it (the event path
	// deep-copies the payload). Whatever the pump holds when it exits was
	// never enqueued, so a regular buffer goes back to the pool.
	var buf []byte
	defer func() {
		if len(buf) == replayEnvelopeTarget {
			envelopePool.Put((*envelopeBuf)(buf))
		}
	}()
	for {
		select {
		case <-sr.stop:
			s.finishReplay(sr)
			return
		case <-s.closedCh:
			s.finishReplay(sr)
			return
		default:
		}
		// Self-pace: history must not blow the reliable window that live
		// traffic and the post-handoff tail share, and envelopes in
		// flight stay few enough that acks return inside the RTO.
		if s.unackedLen() > min(replayMaxInflight, s.b.cfg.reliableWindow/2) {
			backoff.Reset(replayBackoff)
			select {
			case <-sr.stop:
			case <-s.closedCh:
			case <-backoff.C:
			}
			continue // a stop is acted on at the top of the loop
		}
		var progressed bool
		var err error
		buf, progressed, err = s.pumpHistory(sr, buf)
		if err != nil {
			if !errors.Is(err, topiclog.ErrClosed) {
				s.sendReliable(replayReplyEvent(repErr, sr.id, err.Error()))
			}
			s.finishReplay(sr)
			return
		}
		if progressed {
			continue
		}
		// At the committed tail: hand off to live delivery.
		if !sr.cur.AttachTail(func(run []byte, _ uint64, _ int) { s.deliverTail(sr, run) }) {
			continue // an append won the race; drain it and retry
		}
		s.replayMu.Lock()
		sr.attached = true
		stopped := sr.stopped
		s.replayMu.Unlock()
		if stopped {
			// stopReplay ran between the attach and the flag: it saw
			// attached == false, so closing the cursor is on us.
			sr.cur.Close()
			return
		}
		s.sendReliable(replayReplyEvent(repLive, sr.id, ""))
		return
	}
}

// pumpHistory is one pump step: read the next run of history into buf
// (taken from envelopePool when nil) and send it as one envelope. It
// returns the buffer for the next step (nil once the reliable window
// owns this one) and whether it made progress; none, with a nil error,
// means the cursor is at the committed tail.
func (s *session) pumpHistory(sr *sessionReplay, buf []byte) (next []byte, progressed bool, err error) {
	if buf == nil {
		buf = envelopePool.Get().(*envelopeBuf)[:]
	}
	n, _, _, err := sr.cur.ReadFramed(buf[replayHeadroom : len(buf)-event.RSeqSlotLen])
	switch {
	case errors.Is(err, io.ErrShortBuffer):
		// One record larger than the buffer: n is the room it needs.
		if n > replayEnvelopeMax {
			s.b.ctr.oversized.Inc()
			sr.cur.Skip()
			return buf, true, nil
		}
		if len(buf) == replayEnvelopeTarget {
			envelopePool.Put((*envelopeBuf)(buf)) // nothing was read into it
		}
		return make([]byte, replayHeadroom+n+event.RSeqSlotLen), true, nil
	case err != nil || n == 0:
		return buf, false, err
	}
	s.sendRun(sr, buf[replayHeadroom:replayHeadroom+n], buf)
	if s.framed {
		buf = nil // the reliable window's now
	}
	return buf, true, nil
}

// sendRun sends one run of whole framed records as a data envelope. A
// non-nil buf already holds the run at replayHeadroom (the pump read it
// there); a borrowed run (tail delivery) is copied into a buffer of its
// own. The frame is wrapped around the bytes where they lie and the
// buffer passes to the reliable window — marked recyclable when it is a
// pooled pump buffer (only those are exactly replayEnvelopeTarget long;
// a pump buffer grown for one record is longer). Unframed sessions take
// the event path with the payload aliasing run; its deep copy is what
// the window keeps, and buf stays the caller's.
func (s *session) sendRun(sr *sessionReplay, run, buf []byte) {
	if !s.framed {
		e := *sr.env
		e.Payload = run
		s.sendReliable(&e)
		return
	}
	var env *envelopeBuf
	switch {
	case buf == nil:
		buf = make([]byte, replayHeadroom+len(run)+event.RSeqSlotLen)
		copy(buf[replayHeadroom:], run)
	case len(buf) == replayEnvelopeTarget:
		env = (*envelopeBuf)(buf)
	}
	s.enqueueReliable(nil, nil, event.NewFrameAround(buf, replayHeadroom, len(run), sr.env), env, 0)
}

// deliverTail forwards one appended batch to the session as a data
// envelope. It runs synchronously under the log's append lock (it is
// the attached tailer), inside the publisher's critical path, so it
// does one memmove and enqueues — the send queue and reliable plane
// never call back into the log. run is the log's write buffer: framed
// and checksummed by Append, gone after the call. A window-overflow
// close here tears the session down via teardownReplays' own
// goroutine, never inline.
func (s *session) deliverTail(sr *sessionReplay, run []byte) {
	for len(run) > replayEnvelopeMax {
		// A burst over the envelope cap: cut at the last whole record
		// under it, dropping (and counting) a record over the cap alone.
		cut := 0
		for {
			rn := topiclog.FramedLen(run[cut:])
			if cut+rn > replayEnvelopeMax {
				break
			}
			cut += rn
		}
		if cut == 0 {
			s.b.ctr.oversized.Inc()
			cut = topiclog.FramedLen(run)
		} else {
			s.sendRun(sr, run[:cut], nil)
		}
		run = run[cut:]
	}
	if len(run) > 0 {
		s.sendRun(sr, run, nil)
	}
}
