// Package topiclog implements the broker's durable topic log: a
// segmented append-only record of encoded event frames per recorded
// topic pattern. The broker's route sweep appends matching frames
// batch-at-a-time (one file write per burst), and replay cursors read
// them back in batches that feed the normal subscription delivery
// surface, so a late joiner drains history and hands off to live
// delivery exactly once.
//
// On disk a log is a directory of segment files named
// "<baseSeq padded to 20 digits>.seg". Each segment is a run of
// records with contiguous sequence numbers; each record is
//
//	seq     uint64  big-endian
//	length  uint32  big-endian (payload bytes)
//	crc     uint32  big-endian CRC-32C (Castagnoli) of the payload
//	payload length bytes
//
// The fixed header is HeaderLen bytes. A torn tail (partial write or
// corrupt CRC from a crash) is detected and truncated at open; every
// record before the tear is preserved.
package topiclog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// HeaderLen is the fixed per-record header size: seq(8) + length(4) +
// crc(4).
const HeaderLen = 16

// DefaultMaxRecordBytes bounds a single record's payload when a
// caller does not set Config.MaxRecordBytes. It comfortably exceeds
// the broker's wire limit for one encoded event.
const DefaultMaxRecordBytes = 2 << 20

var (
	// ErrShort reports that a buffer ends before the record it starts
	// does — at the tail of a segment this is a torn write, not
	// corruption of committed data.
	ErrShort = errors.New("topiclog: short record")
	// ErrCorrupt reports a record whose header is implausible or whose
	// payload fails its CRC.
	ErrCorrupt = errors.New("topiclog: corrupt record")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendRecord appends one framed record to dst and returns the
// extended slice.
func AppendRecord(dst []byte, seq uint64, payload []byte) []byte {
	var hdr [HeaderLen]byte
	binary.BigEndian.PutUint64(hdr[0:8], seq)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[12:16], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// FramedLen returns the encoded size (header plus payload) of the
// record at the head of b, which must hold its header. It trusts the
// length field: callers walk runs ParseRecord or Append vouched for.
func FramedLen(b []byte) int {
	return HeaderLen + int(binary.BigEndian.Uint32(b[8:12]))
}

// ParseRecord decodes the record at the head of b. The returned
// payload aliases b. n is the total encoded length consumed. A buffer
// that ends mid-record returns ErrShort; an implausible length or CRC
// mismatch returns ErrCorrupt. maxPayload bounds the accepted payload
// length (<=0 means DefaultMaxRecordBytes).
func ParseRecord(b []byte, maxPayload int) (seq uint64, payload []byte, n int, err error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxRecordBytes
	}
	if len(b) < HeaderLen {
		return 0, nil, 0, ErrShort
	}
	seq = binary.BigEndian.Uint64(b[0:8])
	length := binary.BigEndian.Uint32(b[8:12])
	if length > uint32(maxPayload) {
		return 0, nil, 0, fmt.Errorf("%w: payload length %d exceeds limit %d", ErrCorrupt, length, maxPayload)
	}
	total := HeaderLen + int(length)
	if len(b) < total {
		return 0, nil, 0, ErrShort
	}
	payload = b[HeaderLen:total]
	if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(b[12:16]) {
		return 0, nil, 0, fmt.Errorf("%w: crc mismatch at seq %d", ErrCorrupt, seq)
	}
	return seq, payload, total, nil
}

// ReadRecord reads one record from r (the streaming form of
// ParseRecord, used by the archiver). io.EOF is returned only at a
// clean record boundary; a record cut off mid-way returns
// io.ErrUnexpectedEOF.
func ReadRecord(r io.Reader, maxPayload int) (seq uint64, payload []byte, err error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxRecordBytes
	}
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	seq = binary.BigEndian.Uint64(hdr[0:8])
	length := binary.BigEndian.Uint32(hdr[8:12])
	if length > uint32(maxPayload) {
		return 0, nil, fmt.Errorf("%w: payload length %d exceeds limit %d", ErrCorrupt, length, maxPayload)
	}
	payload = make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(hdr[12:16]) {
		return 0, nil, fmt.Errorf("%w: crc mismatch at seq %d", ErrCorrupt, seq)
	}
	return seq, payload, nil
}
