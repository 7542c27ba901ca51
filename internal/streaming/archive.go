package streaming

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/topiclog"
)

// Archiver records a session's media events to a writer and replays them
// later with original pacing — the "conference archiving service" the
// Admire system provides and Global-MMCS adopts.
//
// Archives use the broker's durable topic log record format (see
// internal/topiclog): each event is a sequence-stamped, CRC-framed
// record, so an archive file is interchangeable with a topic log
// segment and a torn tail from a crashed recorder is detectable.
// Archives written by earlier releases (4-byte length framing, no
// checksum) are rejected with ErrLegacyArchive.
type Archiver struct{}

// ErrLegacyArchive reports an archive in the pre-topiclog format:
// length-framed events with no sequence numbers or checksums.
var ErrLegacyArchive = errors.New("streaming: legacy archive format (4-byte length framing)")

// maxPaceGap bounds the inter-event gap a paced replay reproduces;
// a longer one (a recorder paused, or a clock step) is replayed at once.
const maxPaceGap = 10 * time.Second

// WriteFrame writes one archived event as a topiclog record: the
// encoded event is the record payload, stamped with seq and a CRC-32C.
// Sequence numbers in one archive must be contiguous and ascending
// from 1 — Record maintains this; callers framing
// events themselves must too.
func WriteFrame(w io.Writer, seq uint64, e *event.Event) error {
	rec := topiclog.AppendRecord(nil, seq, event.Marshal(e))
	if _, err := w.Write(rec); err != nil {
		return fmt.Errorf("streaming: writing archive record: %w", err)
	}
	return nil
}

// Record consumes events from sub until it closes or ctx ends, writing
// sequence-stamped records to w. It returns the number of events
// recorded.
func (Archiver) Record(ctx context.Context, w io.Writer, sub *broker.Subscription) (int, error) {
	count := 0
	var buf []*event.Event
	for {
		var err error
		if buf, err = sub.RecvBatchContext(ctx, buf[:0], 0); err != nil {
			return count, nil
		}
		for _, e := range buf {
			if err := WriteFrame(w, uint64(count+1), e); err != nil {
				return count, err
			}
			count++
		}
		clear(buf)
	}
}

// Publisher abstracts the replay sink (a broker client).
type Publisher interface {
	PublishEvent(e *event.Event) error
}

// Replay reads an archive and republishes its events until the archive
// ends or ctx is cancelled. With pace=true the original inter-event
// gaps (from event timestamps) are reproduced; rewriteTopic, when
// non-nil, maps each event's topic so a replay can feed a different
// session. Returns events replayed.
//
// A truncated final record (a recorder crash mid-write) ends the
// replay cleanly after the last complete event, matching the topic
// log's own torn-tail recovery.
func (Archiver) Replay(ctx context.Context, r io.Reader, pub Publisher, pace bool, rewriteTopic func(string) string) (int, error) {
	br := bufio.NewReader(r)
	// Probe for the legacy format: its byte 4 is the event magic; a
	// record header's byte 4 is a high sequence byte, never 0xE5 for
	// any realistic archive length.
	if head, err := br.Peek(5); err == nil && head[4] == 0xE5 {
		return 0, ErrLegacyArchive
	}
	count := 0
	var prevTS int64
	pacer := time.NewTimer(maxPaceGap) // reset for every paced gap, stopped on return
	defer pacer.Stop()
	for {
		if err := ctx.Err(); err != nil {
			return count, err
		}
		_, payload, err := topiclog.ReadRecord(br)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return count, nil
			}
			return count, fmt.Errorf("streaming: reading archive record: %w", err)
		}
		e, err := event.Unmarshal(payload)
		if err != nil {
			return count, fmt.Errorf("streaming: decoding archived event: %w", err)
		}
		if pace && prevTS != 0 {
			if gap := time.Duration(e.Timestamp - prevTS); gap > 0 && gap < maxPaceGap {
				pacer.Reset(gap)
				select {
				case <-pacer.C:
				case <-ctx.Done():
					return count, ctx.Err()
				}
			}
		}
		prevTS = e.Timestamp
		out := e.Clone()
		if rewriteTopic != nil {
			out.Topic = rewriteTopic(out.Topic)
		}
		out.Timestamp = time.Now().UnixNano()
		if err := pub.PublishEvent(out); err != nil {
			return count, fmt.Errorf("streaming: republishing archived event: %w", err)
		}
		count++
	}
}
