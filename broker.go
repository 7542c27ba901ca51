package globalmmcs

import (
	"context"
	"fmt"
	"slices"

	"github.com/globalmmcs/globalmmcs/internal/broker"
)

// Broker is one node of the messaging middleware: the broker, its
// listeners and its supervised mesh links. A Server runs one beneath
// its services; NewBroker runs one alone, for a distributed broker
// network outside a full Server (cmd/gmmcs-broker).
type Broker struct {
	b     *broker.Broker
	mesh  *broker.Mesh // nil without WithPeers
	addrs []string
}

// NewBroker starts a standalone broker node configured by the same
// options as Start: it listens on every WithBrokerListen URL and keeps
// supervised links to every WithPeers URL.
func NewBroker(opts ...Option) (*Broker, error) {
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	b, err := newNode(cfg.withDefaults())
	return b, wrapErr(err)
}

// newNode assembles a broker node. On a listen error it stops what it
// started.
func newNode(cfg config) (*Broker, error) {
	n := &Broker{b: broker.New(cfg.broker)}
	for _, url := range cfg.listenURLs {
		l, err := n.b.Listen(url)
		if err != nil {
			n.Stop()
			return nil, fmt.Errorf("globalmmcs: broker listen %s: %w", url, err)
		}
		n.addrs = append(n.addrs, l.Addr())
	}
	if len(cfg.peers) > 0 {
		n.mesh = broker.NewMesh(n.b, broker.MeshConfig{Peers: cfg.peers})
	}
	return n, nil
}

// Addrs returns the bound transport URL of each WithBrokerListen URL,
// in order (an ephemeral ":0" port resolved).
func (b *Broker) Addrs() []string { return slices.Clone(b.addrs) }

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

// PeerLinks reports the status of every link declared via WithPeers.
func (b *Broker) PeerLinks() []PeerLink {
	if b.mesh == nil {
		return nil
	}
	links := b.mesh.Links()
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

// Drain gracefully winds the broker down ahead of Stop: new connections
// are refused, every client receives a reliable GOAWAY notice telling
// reconnect-enabled clients to redial another broker, and the call
// waits until each remaining client has acknowledged all reliable
// traffic in flight — or ctx expires. On a stopped broker it returns
// ErrServerStopped. Wired to SIGTERM in cmd/gmmcs-broker and
// cmd/gmmcs-server via -drain-timeout.
func (b *Broker) Drain(ctx context.Context) error { return wrapErr(b.b.Drain(ctx)) }

// Stop shuts the broker down, tearing down supervised mesh links first.
// It is idempotent.
func (b *Broker) Stop() {
	if b.mesh != nil {
		b.mesh.Stop()
	}
	b.b.Stop()
}
