// Package broker implements the NaradaBrokering-substitute messaging
// middleware of Global-MMCS: topic-based publish/subscribe brokers that
// can be linked into a distributed network, carrying best-effort media
// events and reliable signalling events over any transport.Conn.
//
// Routing operates in one of two modes, mirroring the paper's
// "client-server like JMS" and "distributed JXTA-like peer-to-peer"
// descriptions:
//
//   - ModeClientServer: brokers exchange subscription advertisements and
//     forward events only along links with matching downstream interest.
//   - ModePeerToPeer: brokers flood events to all peers, bounded by TTL
//     and suppressed by a duplicate cache.
package broker

import (
	"fmt"
	"strconv"

	"github.com/globalmmcs/globalmmcs/internal/event"
)

// Control topics. The "/_nb" prefix is reserved; client subscriptions to
// it are rejected.
const (
	controlPrefix = "/_nb"

	topicHello  = "/_nb/hello"  // first event on any conn: identify client
	topicPeer   = "/_nb/peer"   // first event on a broker-broker link
	topicSub    = "/_nb/sub"    // subscribe request
	topicUnsub  = "/_nb/unsub"  // unsubscribe request
	topicAck    = "/_nb/ack"    // cumulative reliable ack
	topicSubAdv = "/_nb/subadv" // broker-broker subscription advertisement
	topicPing   = "/_nb/ping"   // keepalive
	topicPeerHB = "/_nb/peerhb" // mesh-link heartbeat (partition detection)
	topicCredit = "/_nb/credit" // mesh-link flow-control consumption grant

	topicReplay     = "/_nb/replay"  // durable-log replay control (start/stop/ok/err/live)
	topicReplayData = "/_nb/repdata" // durable-log replay data envelope
	topicGoaway     = "/_nb/goaway"  // broker drain notice: redial another broker
)

// Control headers.
const (
	hdrID      = "id"      // client or broker identity
	hdrPattern = "pattern" // subscription pattern
	hdrOp      = "op"      // "add" or "remove" for advertisements
	hdrOrigin  = "origin"  // originating broker of an advertisement
	hdrSeq     = "seq"     // advertisement sequence number
	hdrRSeq    = "rseq"    // cumulative ack floor carried by an ack
	hdrMode    = "mode"    // routing mode carried on peer hello
	hdrMesh    = "mesh"    // mesh identity carried on peer hello
	hdrHops    = "hops"    // advertiser's hop distance to the origin broker
	hdrReplay  = "replay"  // replay stream id (client-chosen token)
	hdrFrom    = "from"    // replay start sequence ("0" = from earliest)
	hdrError   = "error"   // human-readable error detail on replay replies
	hdrToken   = "token"   // session resume token (hello/welcome exchange)
)

// isControlTopic reports whether t belongs to the reserved namespace.
func isControlTopic(t string) bool {
	return len(t) >= len(controlPrefix) && t[:len(controlPrefix)] == controlPrefix
}

func helloEvent(id string) *event.Event {
	e := event.New(topicHello, event.KindControl, nil)
	e.Headers = map[string]string{hdrID: id}
	return e
}

// Resume handshake operations carried in hdrOp on topicHello events. A
// plain hello (no op) opens a fresh session; a redialing client sends
// opResume with the token minted at its previous attach. The broker
// answers every hello on a linger-enabled broker: opWelcome (fresh
// session, token minted), opResumed (parked session reattached, new
// token minted), or opRejected (token unknown/expired — the conn was
// attached as a fresh session and the client must resubscribe from
// scratch). Replies ride the best-effort lane unsequenced: they must
// not consume a reliable rseq, which belongs to the resumed window.
const (
	opResume   = "resume"
	opWelcome  = "welcome"
	opResumed  = "resumed"
	opRejected = "rejected"
)

// resumeHelloEvent is the redial form of the client hello, presenting
// the resume token of a (hopefully still parked) previous session.
func resumeHelloEvent(id, token string) *event.Event {
	e := event.New(topicHello, event.KindControl, nil)
	e.Headers = map[string]string{hdrID: id, hdrOp: opResume, hdrToken: token}
	return e
}

// welcomeEvent is the broker's hello reply: op is opWelcome, opResumed
// or opRejected, and token (possibly empty when session linger is
// disabled) is what the client must present on its next redial.
func welcomeEvent(op, token string) *event.Event {
	e := event.New(topicHello, event.KindControl, nil)
	e.Headers = map[string]string{hdrOp: op}
	if token != "" {
		e.Headers[hdrToken] = token
	}
	return e
}

// goawayEvent is the drain notice: the broker stops accepting and asks
// resilient clients to redial another broker. It rides the reliable
// lane so a draining broker retransmits it until acknowledged.
func goawayEvent() *event.Event {
	e := event.New(topicGoaway, event.KindControl, nil)
	e.Reliable = true
	return e
}

func peerHelloEvent(id string, mode Mode, meshID string) *event.Event {
	e := event.New(topicPeer, event.KindControl, nil)
	e.Headers = map[string]string{hdrID: id, hdrMode: strconv.Itoa(int(mode))}
	if meshID != "" {
		e.Headers[hdrMesh] = meshID
	}
	return e
}

// Heartbeat operations carried in hdrOp on topicPeerHB events.
const (
	hbPing = "ping"
	hbPong = "pong"
)

func peerHeartbeatEvent(op string) *event.Event {
	e := event.New(topicPeerHB, event.KindControl, nil)
	e.Headers = map[string]string{hdrOp: op}
	return e
}

func subEvent(pattern string) *event.Event {
	e := event.New(topicSub, event.KindControl, nil)
	e.Headers = map[string]string{hdrPattern: pattern}
	return e
}

func unsubEvent(pattern string) *event.Event {
	e := event.New(topicUnsub, event.KindControl, nil)
	e.Headers = map[string]string{hdrPattern: pattern}
	return e
}

func ackEvent(cum uint64) *event.Event {
	e := event.New(topicAck, event.KindControl, nil)
	e.Headers = map[string]string{hdrRSeq: strconv.FormatUint(cum, 10)}
	return e
}

// advOp is the operation carried by a subscription advertisement.
type advOp string

const (
	advAdd    advOp = "add"
	advRemove advOp = "remove"
)

// subAdvEvent builds a subscription advertisement. hops is the sender's
// own hop distance to the origin broker (0 when the sender is the
// origin); receivers cost the pattern at hops+1 via the link it arrived
// on, which is what routed forwarding's cheapest-next-hop tables are
// built from.
func subAdvEvent(op advOp, pattern, origin string, seq uint64, hops int) *event.Event {
	e := event.New(topicSubAdv, event.KindControl, nil)
	e.Headers = map[string]string{
		hdrOp:      string(op),
		hdrPattern: pattern,
		hdrOrigin:  origin,
		hdrSeq:     strconv.FormatUint(seq, 10),
		hdrHops:    strconv.Itoa(hops),
	}
	return e
}

// creditEvent builds a flow-control grant carrying the receiver's
// cumulative count of consumed best-effort data events for this link.
// The sender subtracts it from its staged count to size the in-flight
// window (see session.creditAdmit).
func creditEvent(cum uint64) *event.Event {
	e := event.New(topicCredit, event.KindControl, nil)
	e.Headers = map[string]string{hdrSeq: strconv.FormatUint(cum, 10)}
	return e
}

// Replay operations carried in hdrOp on topicReplay events. The client
// sends start/stop requests; the broker replies ok (cursor opened),
// err (no such recorded pattern, duplicate id, cursor failure) and
// live (history drained, the stream handed off to tail delivery).
const (
	repStart = "start"
	repStop  = "stop"
	repOK    = "ok"
	repErr   = "err"
	repLive  = "live"
)

// replayStartEvent asks the broker to open a replay of the recorded
// pattern from sequence from (0 = earliest), delivered under the
// client-chosen stream id.
func replayStartEvent(pattern string, from, id uint64) *event.Event {
	e := event.New(topicReplay, event.KindControl, nil)
	e.Headers = map[string]string{
		hdrOp:      repStart,
		hdrPattern: pattern,
		hdrFrom:    strconv.FormatUint(from, 10),
		hdrReplay:  strconv.FormatUint(id, 10),
	}
	return e
}

// replayStopEvent ends the replay stream id.
func replayStopEvent(id uint64) *event.Event {
	e := event.New(topicReplay, event.KindControl, nil)
	e.Headers = map[string]string{hdrOp: repStop, hdrReplay: strconv.FormatUint(id, 10)}
	return e
}

// replayReplyEvent is a broker→client replay control reply (ok, err or
// live), sent on the reliable lane so stream lifecycle transitions are
// never dropped.
func replayReplyEvent(op string, id uint64, detail string) *event.Event {
	e := event.New(topicReplay, event.KindControl, nil)
	e.Reliable = true
	e.Headers = map[string]string{hdrOp: op, hdrReplay: strconv.FormatUint(id, 10)}
	if detail != "" {
		e.Headers[hdrError] = detail
	}
	return e
}

// replayDataEvent is one replay data envelope: its payload is a run of
// topiclog-framed records (seq, length, CRC, encoded event), one
// envelope per pump batch so the burst amortization the live plane
// gets from frames is preserved on the replay path. Envelopes ride the
// reliable lane: broker-side they are never shed, FIFO order holds
// through the cursor→tail handoff, and the client re-verifies each
// record's CRC when unpacking.
func replayDataEvent(id uint64, payload []byte) *event.Event {
	e := event.New(topicReplayData, event.KindControl, payload)
	e.Reliable = true
	e.Headers = map[string]string{hdrReplay: strconv.FormatUint(id, 10)}
	return e
}

func headerUint(e *event.Event, key string) (uint64, error) {
	s, ok := e.Headers[key]
	if !ok {
		return 0, fmt.Errorf("broker: missing %q header on %s", key, e.Topic)
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("broker: bad %q header: %w", key, err)
	}
	return v, nil
}
