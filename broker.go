package globalmmcs

import (
	"context"
	"sync"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/broker"
)

// BrokerMode selects how a standalone broker network routes events.
type BrokerMode int

// Routing modes.
const (
	// BrokerClientServer routes along subscription advertisements (the
	// paper's "client-server mode like JMS").
	BrokerClientServer BrokerMode = iota + 1
	// BrokerPeerToPeer floods events to all peers with TTL and duplicate
	// suppression (the paper's "JXTA-like peer-to-peer mode").
	BrokerPeerToPeer
)

// String implements fmt.Stringer.
func (m BrokerMode) String() string { return broker.Mode(m).String() }

// Broker is a standalone node of the messaging middleware, for running
// a distributed broker network outside a full Server (cmd/gmmcs-broker).
type Broker struct {
	b       *broker.Broker
	metrics *Metrics

	meshMu sync.Mutex
	mesh   *broker.Mesh
}

// BrokerConfig tunes a standalone broker's data path. The zero value
// keeps every default.
type BrokerConfig struct {
	// QueueDepth bounds each session's best-effort lane (default 512).
	QueueDepth int
	// MaxBatchBytes bounds per-session write batches (default 256 KiB).
	MaxBatchBytes int
	// FlushInterval is the batch linger once a session queue idles
	// (default 0: flush immediately).
	FlushInterval time.Duration
	// MeshID scopes this broker's peer links to one federation mesh:
	// brokers link only when their mesh IDs match (empty matches
	// anything).
	MeshID string
	// PeerCreditWindow bounds the best-effort events in flight to one
	// peer link before the sender sheds instead of staging (default
	// QueueDepth/2, min 64; negative disables flow control).
	PeerCreditWindow int
	// RecordPatterns are topic patterns this broker records to durable
	// topic logs for replay (see internal/topiclog). Empty disables
	// recording.
	RecordPatterns []string
	// RecordDir is the root directory for topic logs (empty = a
	// per-broker default under the OS temp dir).
	RecordDir string
	// RecordSegmentBytes caps one log segment before roll (0 = 4 MiB).
	RecordSegmentBytes int64
	// RecordMaxSegments / RecordMaxBytes bound each log's retention;
	// oldest segments are reaped past either, except segments an active
	// replay cursor still reads (0 = unbounded).
	RecordMaxSegments int
	RecordMaxBytes    int64
	// SessionLinger retains a client session whose conn died — its
	// subscriptions, reliable window and ack floor — for this long,
	// awaiting a resume from a reconnecting client (see DialBroker with
	// WithReconnect). 0 disables parking: a dead conn tears the session
	// down immediately.
	SessionLinger time.Duration
}

// NewBroker creates a standalone broker. mode 0 defaults to
// BrokerClientServer.
func NewBroker(id string, mode BrokerMode) *Broker {
	return NewBrokerWithConfig(id, mode, BrokerConfig{})
}

// NewBrokerWithConfig creates a standalone broker with data-path tuning.
func NewBrokerWithConfig(id string, mode BrokerMode, cfg BrokerConfig) *Broker {
	m := NewMetrics()
	return &Broker{
		b: broker.New(broker.Config{
			ID:                 id,
			Mode:               broker.Mode(mode),
			QueueDepth:         cfg.QueueDepth,
			MaxBatchBytes:      cfg.MaxBatchBytes,
			FlushInterval:      cfg.FlushInterval,
			MeshID:             cfg.MeshID,
			PeerCreditWindow:   cfg.PeerCreditWindow,
			RecordPatterns:     cfg.RecordPatterns,
			RecordDir:          cfg.RecordDir,
			RecordSegmentBytes: cfg.RecordSegmentBytes,
			RecordMaxSegments:  cfg.RecordMaxSegments,
			RecordMaxBytes:     cfg.RecordMaxBytes,
			SessionLinger:      cfg.SessionLinger,
			Metrics:            m.reg,
		}),
		metrics: m,
	}
}

// Listen accepts clients and peer brokers on a transport URL (tcp:// or
// udp://) and returns the bound address.
func (b *Broker) Listen(url string) (string, error) {
	l, err := b.b.Listen(url)
	if err != nil {
		return "", err
	}
	return l.Addr(), nil
}

// ConnectPeer links this broker to a peer broker's listen URL once,
// without supervision. Use SetPeers for supervised, self-healing links.
func (b *Broker) ConnectPeer(url string) error { return b.b.ConnectPeer(url) }

// SetPeers declares the set of peer broker URLs this node keeps
// supervised mesh links to: each is dialed (and redialed with backoff
// after drops or partitions, detected via heartbeats), and links to
// URLs no longer listed are torn down. Calling it again reconciles
// against the new set; an empty call drops all supervised links.
func (b *Broker) SetPeers(urls ...string) {
	b.meshMu.Lock()
	defer b.meshMu.Unlock()
	if b.mesh == nil {
		b.mesh = broker.NewMesh(b.b, broker.MeshConfig{Peers: urls})
		return
	}
	b.mesh.SetPeers(urls)
}

// PeerLink is one supervised mesh link's externally visible state.
type PeerLink struct {
	// URL is the configured peer address.
	URL string
	// RemoteID is the peer broker's identity once learned ("" before the
	// first successful handshake).
	RemoteID string
	// State is "dialing", "up", "backoff", "standby" (yielded to the
	// link the peer dialed) or "stopped".
	State string
	// Redials counts dial attempts after the first.
	Redials uint64
}

// PeerLinks reports the status of every link declared via SetPeers.
func (b *Broker) PeerLinks() []PeerLink {
	b.meshMu.Lock()
	mesh := b.mesh
	b.meshMu.Unlock()
	if mesh == nil {
		return nil
	}
	links := mesh.Links()
	out := make([]PeerLink, 0, len(links))
	for _, l := range links {
		out = append(out, PeerLink{URL: l.URL, RemoteID: l.RemoteID, State: l.State, Redials: l.Redials})
	}
	return out
}

// SessionCount returns the number of attached clients and peers.
func (b *Broker) SessionCount() int { return b.b.SessionCount() }

// PeerCount returns the number of linked peer brokers.
func (b *Broker) PeerCount() int { return b.b.PeerCount() }

// Mode returns the routing mode.
func (b *Broker) Mode() BrokerMode { return BrokerMode(b.b.Mode()) }

// MetricsReport renders the broker's counters as text.
func (b *Broker) MetricsReport() string { return b.metrics.Report() }

// Drain gracefully winds the broker down: new connections are refused,
// every client receives a reliable GOAWAY notice telling
// reconnect-enabled clients to redial another broker, and the call
// waits until each remaining client has acknowledged all reliable
// traffic in flight — or ctx expires. Call Stop afterwards to release
// the broker. Wired to SIGTERM in cmd/gmmcs-broker via -drain-timeout.
func (b *Broker) Drain(ctx context.Context) error { return b.b.Drain(ctx) }

// Stop shuts the broker down, tearing down supervised mesh links first.
func (b *Broker) Stop() {
	b.meshMu.Lock()
	mesh := b.mesh
	b.mesh = nil
	b.meshMu.Unlock()
	if mesh != nil {
		mesh.Stop()
	}
	b.b.Stop()
}
