package globalmmcs

import (
	"time"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/clock"
	"github.com/globalmmcs/globalmmcs/internal/metrics"
)

// Option configures a Server at Start or a standalone Broker at
// NewBroker. The zero configuration (no options) starts every service
// on loopback with ephemeral ports, so Start(ctx) alone always yields a
// working node. NewBroker ignores the service options (WithDomain,
// WithWebAddr, the Without* options and WithClock).
type Option func(*config)

// config is what the options set. The broker's settings, the metrics
// registry among them, live in the broker's own Config.
type config struct {
	broker      broker.Config
	listenURLs  []string
	peers       []string
	domain      string
	webAddr     string
	withoutSIP  bool
	withoutH323 bool
	withoutRTSP bool
	withoutIM   bool
	clock       clock.Clock
}

func (c config) withDefaults() config {
	if c.broker.ID == "" {
		c.broker.ID = "gmmcs-broker"
	}
	if c.broker.Metrics == nil {
		c.broker.Metrics = &metrics.Registry{}
	}
	if c.domain == "" {
		c.domain = "mmcs.local"
	}
	if c.webAddr == "" {
		c.webAddr = "127.0.0.1:0"
	}
	if c.clock == nil {
		c.clock = clock.System{}
	}
	return c
}

// WithBrokerID names this node's broker in a multi-broker network.
func WithBrokerID(id string) Option {
	return func(c *config) { c.broker.ID = id }
}

// WithBrokerListen adds transport URLs the broker accepts remote clients
// and peer brokers on (e.g. "tcp://127.0.0.1:9040").
func WithBrokerListen(urls ...string) Option {
	return func(c *config) { c.listenURLs = append(c.listenURLs, urls...) }
}

// WithBrokerBatching tunes the broker data path's outbound batching:
// maxBatchBytes bounds the encoded bytes a session writer aggregates
// before forcing a vectored flush (0 keeps the 256 KiB default), and
// flushInterval is how long a writer lingers over a non-empty batch once
// its queue idles, waiting for more traffic to coalesce with (0, the
// default, flushes immediately on idle — batching then costs no
// latency). Reliable signalling always flushes immediately regardless.
func WithBrokerBatching(maxBatchBytes int, flushInterval time.Duration) Option {
	return func(c *config) {
		c.broker.MaxBatchBytes = maxBatchBytes
		c.broker.FlushInterval = flushInterval
	}
}

// WithPeers declares peer broker URLs this node keeps supervised
// federation-mesh links to. Each peer is dialed at start and redialed
// with exponential backoff after drops or partitions (detected via
// peer heartbeats); subscription advertisements re-sync automatically
// when a link comes back. Repeated options accumulate.
func WithPeers(urls ...string) Option {
	return func(c *config) { c.peers = append(c.peers, urls...) }
}

// WithMeshID scopes this node's peer links to one federation mesh:
// brokers only link when their mesh IDs match (empty matches anything).
func WithMeshID(id string) Option {
	return func(c *config) { c.broker.MeshID = id }
}

// WithPeerToPeer switches the broker from routing along subscription
// advertisements (the paper's "client-server mode like JMS", the
// default) to flooding events to all peers with TTL and duplicate
// suppression (its "JXTA-like peer-to-peer mode"). Brokers only link
// when their modes match.
func WithPeerToPeer() Option {
	return func(c *config) { c.broker.Mode = broker.ModePeerToPeer }
}

// WithSessionLinger retains a client session whose conn died — its
// subscriptions, reliable window and ack floor — for d, awaiting a
// resume from a reconnecting client (see Dial). 0, the default,
// disables parking: a dead conn tears the session down immediately,
// and a reconnecting client re-subscribes on a fresh one.
func WithSessionLinger(d time.Duration) Option {
	return func(c *config) { c.broker.SessionLinger = d }
}

// WithRecording turns on the broker's durable topic log for the given
// topic patterns: every routed event matching a pattern is appended to
// a segmented, CRC-framed on-disk log, and late joiners can replay
// history through Events/Subscribe with WithReplayFrom or
// WithReplayFromEarliest before switching to live delivery. dir is the
// log root ("" keeps the default under the OS temp dir). Patterns may
// use the usual wildcards ("/chat/#"); replay subscriptions must name
// a recorded pattern exactly. Repeated options accumulate patterns.
func WithRecording(dir string, patterns ...string) Option {
	return func(c *config) {
		if dir != "" {
			c.broker.RecordDir = dir
		}
		c.broker.RecordPatterns = append(c.broker.RecordPatterns, patterns...)
	}
}

// WithRecordingRetention bounds each topic log's on-disk footprint:
// segmentBytes caps one segment before roll (0 keeps the 4 MiB
// default), and maxSegments/maxBytes cap a log's total retention —
// oldest segments are reaped past either bound, except segments an
// active replay cursor still reads (0 = unbounded).
func WithRecordingRetention(segmentBytes int64, maxSegments int, maxBytes int64) Option {
	return func(c *config) {
		c.broker.RecordSegmentBytes = segmentBytes
		c.broker.RecordMaxSegments = maxSegments
		c.broker.RecordMaxBytes = maxBytes
	}
}

// WithDomain sets the SIP domain (default "mmcs.local").
func WithDomain(domain string) Option {
	return func(c *config) { c.domain = domain }
}

// WithWebAddr sets the XGSP web server's HTTP listen address (default
// loopback with an ephemeral port).
func WithWebAddr(addr string) Option {
	return func(c *config) { c.webAddr = addr }
}

// WithoutSIP disables the SIP registrar/proxy/gateway.
func WithoutSIP() Option {
	return func(c *config) { c.withoutSIP = true }
}

// WithoutH323 disables the H.323 gatekeeper and gateway.
func WithoutH323() Option {
	return func(c *config) { c.withoutH323 = true }
}

// WithoutRTSP disables the streaming server.
func WithoutRTSP() Option {
	return func(c *config) { c.withoutRTSP = true }
}

// WithoutIM disables the chat/presence service.
func WithoutIM() Option {
	return func(c *config) { c.withoutIM = true }
}

// Clock abstracts the time source driving schedulers and expiry logic,
// so tests can substitute a deterministic fake.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After returns a channel that delivers the time after d has elapsed.
	After(d time.Duration) <-chan time.Time
	// Sleep blocks for d.
	Sleep(d time.Duration)
}

// WithClock substitutes the server's time source.
func WithClock(clk Clock) Option {
	return func(c *config) { c.clock = clk }
}

// Metrics is a registry of the server's counters, histograms and series.
type Metrics struct {
	reg *metrics.Registry
}

// NewMetrics creates an empty registry to hand to WithMetrics.
func NewMetrics() *Metrics { return &Metrics{reg: &metrics.Registry{}} }

// Report renders every registered instrument as text, sorted by name.
func (m *Metrics) Report() string { return m.reg.Report() }

// WithMetrics routes all server counters into m instead of a private
// registry.
func WithMetrics(m *Metrics) Option {
	return func(c *config) { c.broker.Metrics = m.reg }
}
