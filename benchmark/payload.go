package main

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
)

// Every published payload starts with a fixed header followed by
// seed-generated filler; the checksum covers header and filler, so a
// subscriber can prove the bytes it was handed are the bytes that were
// published.
//
//	pub(2) topic(2) seq(8) due(8) crc32c(4) filler...
const headerLen = 24

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// stamp identifies one published event: which publisher sent it, on
// which topic index, as the seq-th event of that (publisher, topic)
// stream (first = 1), and the monotonic instant latency is timed from
// (the due time in an open loop, Publish call entry in a closed loop).
type stamp struct {
	pub, topic int
	seq        uint64
	due        int64
}

// newFiller derives a publisher's payload filler from the run seed.
func newFiller(seed int64, pub, size int) []byte {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(pub)))
	b := make([]byte, size)
	rng.Read(b)
	return b
}

func payloadSum(b []byte) uint32 {
	return crc32.Update(crc32.Checksum(b[:headerLen-4], castagnoli), castagnoli, b[headerLen:])
}

// fillPayload writes filler and s into buf (len(buf) == len(filler)).
func fillPayload(buf, filler []byte, s stamp) {
	copy(buf[headerLen:], filler[headerLen:])
	binary.BigEndian.PutUint16(buf[0:], uint16(s.pub))
	binary.BigEndian.PutUint16(buf[2:], uint16(s.topic))
	binary.BigEndian.PutUint64(buf[4:], s.seq)
	binary.BigEndian.PutUint64(buf[12:], uint64(s.due))
	binary.BigEndian.PutUint32(buf[20:], payloadSum(buf))
}

// parsePayload recovers the stamp; ok is false when the payload is
// short or its bytes do not match the checksum.
func parsePayload(b []byte) (s stamp, ok bool) {
	if len(b) < headerLen || binary.BigEndian.Uint32(b[20:]) != payloadSum(b) {
		return s, false
	}
	return stamp{
		pub:   int(binary.BigEndian.Uint16(b[0:])),
		topic: int(binary.BigEndian.Uint16(b[2:])),
		seq:   binary.BigEndian.Uint64(b[4:]),
		due:   int64(binary.BigEndian.Uint64(b[12:])),
	}, true
}

// checker verifies one subscription's deliveries: intact bytes, the
// subscribed topic, and per-publisher order with no gap and no
// duplicate. It is owned by the subscription's receive goroutine.
type checker struct {
	topic int
	next  []uint64 // per publisher: the seq expected next

	correct   uint64 // intact, on-topic, in-order deliveries
	missing   uint64 // seqs skipped over (lost or reordered ahead)
	dups      uint64 // seqs at or below one already seen
	corrupt   uint64 // checksum or header failures, counted by the sink
	misrouted uint64 // intact events of another topic
}

func newChecker(topic, pubs int) *checker {
	c := &checker{topic: topic, next: make([]uint64, pubs)}
	for i := range c.next {
		c.next[i] = 1
	}
	return c
}

// check verifies one intact payload's stamp, whose seq is its position
// in the (publisher, topic) stream. skipped is how many seqs of s.pub
// were jumped over to reach s.seq (the caller settles their closed-loop
// credits); ok is true only for a correct delivery.
func (c *checker) check(s stamp) (skipped uint64, ok bool) {
	if s.topic != c.topic {
		c.misrouted++
		return 0, false
	}
	want := c.next[s.pub]
	if s.seq < want {
		c.dups++
		return 0, false
	}
	skipped = s.seq - want
	c.missing += skipped
	c.next[s.pub] = s.seq + 1
	c.correct++
	return skipped, true
}

// seen returns how many seqs of pub this subscription has accounted
// for (delivered or skipped).
func (c *checker) seen(pub int) uint64 { return c.next[pub] - 1 }
