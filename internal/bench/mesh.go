package bench

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/broker"
	"github.com/globalmmcs/globalmmcs/internal/event"
	"github.com/globalmmcs/globalmmcs/internal/metrics"
	"github.com/globalmmcs/globalmmcs/internal/transport"
)

// MeshConfig parameterises the cross-mesh fan-out benchmark: a ring of
// federated brokers linked by mesh-supervised TCP peer links, with
// subscribers spread round-robin across all nodes and publishers
// flooding node 0. The benchmark measures what federation costs and
// buys: cross-mesh delivered events per second, per-hop added latency
// (each event carries its publish timestamp), and the loop-guard
// effectiveness on the cyclic topology (client-observed duplicates must
// be zero; the dedup counters show the ring's redundant arrivals being
// absorbed broker-side).
type MeshConfig struct {
	// Mode selects the routing mode. Default ModeClientServer.
	Mode broker.Mode
	// Brokers is the mesh size. Default 4; 1 runs the single-broker
	// control cell (same clients, no federation).
	Brokers int
	// Topology shapes the peer links: "ring" (default; broker i dials its
	// successor, a cycle for n >= 3), "star" (every leaf dials broker 0),
	// or "full" (every pair linked).
	Topology string
	// CreditWindow overrides each broker's per-peer-link credit window
	// (0 keeps the broker default; negative disables flow control).
	CreditWindow int
	// Subscribers is the total fan-out width, spread round-robin across
	// brokers. Default 64.
	Subscribers int
	// Publishers is the number of concurrent publishers, all on broker 0.
	// Default 4.
	Publishers int
	// PayloadBytes sizes each event payload (min 8: the leading 8 bytes
	// carry the publish timestamp). Default 1200.
	PayloadBytes int
	// Warmup runs load before the measurement window opens. Default
	// 300ms (on top of mesh/advertisement convergence, which is awaited
	// explicitly).
	Warmup time.Duration
	// Duration is the measurement window. Default 2s.
	Duration time.Duration
	// QueueDepth overrides each broker's per-session best-effort depth.
	// Default 8192.
	QueueDepth int
	// FlushInterval is each broker's batch linger (default 1ms).
	FlushInterval time.Duration
}

func (c MeshConfig) withDefaults() MeshConfig {
	if c.Mode == 0 {
		c.Mode = broker.ModeClientServer
	}
	if c.Brokers <= 0 {
		c.Brokers = 4
	}
	if c.Topology == "" {
		c.Topology = "ring"
	}
	if c.Subscribers <= 0 {
		c.Subscribers = 64
	}
	if c.Publishers <= 0 {
		c.Publishers = 4
	}
	if c.PayloadBytes < 8 {
		c.PayloadBytes = 1200
	}
	if c.Warmup <= 0 {
		c.Warmup = 300 * time.Millisecond
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8192
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = time.Millisecond
	}
	if c.FlushInterval < 0 {
		c.FlushInterval = 0
	}
	return c
}

// HopLatency is the delivery-latency distribution at one ring distance
// from the publishing broker (hop 0 = subscribers co-located with the
// publishers).
type HopLatency struct {
	Hop    int     `json:"hop"`
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// MeshResult reports one cross-mesh fan-out run.
type MeshResult struct {
	Mode         string  `json:"mode"`
	Topology     string  `json:"topology"`
	Forwarding   string  `json:"forwarding"`
	Brokers      int     `json:"brokers"`
	Subscribers  int     `json:"subscribers"`
	Publishers   int     `json:"publishers"`
	PayloadBytes int     `json:"payload_bytes"`
	WindowSec    float64 `json:"window_sec"`
	// DeliveredPerSec is the headline number: events received by
	// subscribers per second of window time, across the whole mesh.
	DeliveredPerSec float64 `json:"delivered_per_sec"`
	// CrossMeshPerSec is the share of DeliveredPerSec that crossed at
	// least one peer link (subscribers not on the publishing broker).
	CrossMeshPerSec float64 `json:"cross_mesh_per_sec"`
	// ForwardedPerSec is the rate of events put on peer links, summed
	// over every broker's per-peer forwarded counters.
	ForwardedPerSec float64 `json:"forwarded_per_sec"`
	// ForwardedFramesPerDelivered is the mesh's wire-amplification ratio:
	// peer-link frames staged per client-delivered event. Routed
	// forwarding pays only for the spanning tree; peer-to-peer flooding
	// pays for the cycle's redundant copies too.
	ForwardedFramesPerDelivered float64 `json:"forwarded_frames_per_delivered_event"`
	// QueueOverflowDrops sums the per-peer-link best-effort overflow
	// drops across the mesh during the window — what blind shedding cost
	// when a link could not keep up.
	QueueOverflowDrops uint64 `json:"queue_overflow_drops"`
	// CreditStalls sums the per-peer-link credit-window stalls (events
	// shed at the sender before staging) during the window.
	CreditStalls uint64 `json:"credit_stalls"`
	// DupDropped counts redundant arrivals the ring's cyclic topology
	// produced that the brokers' duplicate suppression absorbed.
	DupDropped uint64 `json:"dup_dropped"`
	// DupDeliveries counts duplicates observed by clients — the
	// loop-guard acceptance number, which must be zero.
	DupDeliveries uint64 `json:"dup_deliveries"`
	// Redials counts mesh supervisor redials during the run (expected
	// zero on a healthy run).
	Redials uint64 `json:"redials"`
	// Hops is the per-ring-distance latency distribution.
	Hops []HopLatency `json:"hops"`
}

func (r MeshResult) String() string {
	s := fmt.Sprintf("mesh %s %s/%s brokers=%d subs=%d pubs=%d delivered %.0f ev/s (cross-mesh %.0f ev/s, forwarded %.0f ev/s, fwd/delivered %.3f, dup_dropped %d, dup_delivered %d, overflow_drops %d, credit_stalls %d)",
		r.Mode, r.Topology, r.Forwarding, r.Brokers, r.Subscribers, r.Publishers,
		r.DeliveredPerSec, r.CrossMeshPerSec, r.ForwardedPerSec, r.ForwardedFramesPerDelivered,
		r.DupDropped, r.DupDeliveries, r.QueueOverflowDrops, r.CreditStalls)
	for _, h := range r.Hops {
		s += fmt.Sprintf("\n  hop %d: p50 %.2fms p99 %.2fms (n=%d)", h.Hop, h.P50Ms, h.P99Ms, h.Count)
	}
	return s
}

// meshTopic is the concrete topic the publishers flood.
const meshTopic = "/bench/mesh/stream"

// ringDistance is the minimum hop count between ring positions i and j
// on a bidirectionally routed n-ring (the mesh links are directed
// dials, but events forward along every peer link, so distance is
// symmetric).
func ringDistance(i, j, n int) int {
	d := i - j
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}

// hopDistance is the broker-hop count between nodes i and j under the
// benchmark's topology (star hops through the center, node 0).
func hopDistance(topology string, i, j, n int) int {
	switch {
	case i == j:
		return 0
	case topology == "star":
		if i == 0 || j == 0 {
			return 1
		}
		return 2
	case topology == "full":
		return 1
	default: // ring
		return ringDistance(i, j, n)
	}
}

// RunMesh runs the cross-mesh fan-out benchmark.
func RunMesh(cfg MeshConfig) (MeshResult, error) {
	cfg = cfg.withDefaults()
	forwarding := "routed"
	if cfg.Mode != broker.ModeClientServer {
		forwarding = "flood"
	}
	res := MeshResult{
		Mode:         cfg.Mode.String(),
		Topology:     cfg.Topology,
		Forwarding:   forwarding,
		Brokers:      cfg.Brokers,
		Subscribers:  cfg.Subscribers,
		Publishers:   cfg.Publishers,
		PayloadBytes: cfg.PayloadBytes,
	}
	switch cfg.Topology {
	case "ring", "star", "full":
	default:
		return res, fmt.Errorf("bench: unknown mesh topology %q", cfg.Topology)
	}

	n := cfg.Brokers
	brokers := make([]*broker.Broker, n)
	addrs := make([]string, n)
	for i := range brokers {
		brokers[i] = broker.New(broker.Config{
			ID:               fmt.Sprintf("mesh-broker-%d", i),
			Mode:             cfg.Mode,
			MeshID:           "bench-mesh",
			QueueDepth:       cfg.QueueDepth,
			FlushInterval:    cfg.FlushInterval,
			PeerCreditWindow: cfg.CreditWindow,
		})
		defer brokers[i].Stop()
		if n > 1 {
			l, err := brokers[i].Listen("tcp://127.0.0.1:0")
			if err != nil {
				return res, err
			}
			addrs[i] = l.Addr()
		}
	}

	// Link the topology. Ring: broker i dials its successor — with
	// n >= 3 a cycle, so the loop guard (origin-armed dedup + TTL) is on
	// the measured path; n == 2 degenerates to one link after the
	// duplicate-link tie-break. Star: every leaf dials the center (node
	// 0), acyclic. Full: every pair linked, maximally cyclic.
	var meshes []*broker.Mesh
	defer func() {
		for _, m := range meshes {
			m.Stop()
		}
	}()
	if n > 1 {
		wantPeers := make([]int, n)
		switch cfg.Topology {
		case "star":
			for i := 1; i < n; i++ {
				meshes = append(meshes, broker.NewMesh(brokers[i], broker.MeshConfig{
					Peers: []string{addrs[0]},
				}))
				wantPeers[i] = 1
			}
			wantPeers[0] = n - 1
		case "full":
			for i := range brokers {
				var peers []string
				for j := i + 1; j < n; j++ {
					peers = append(peers, addrs[j])
				}
				if len(peers) > 0 {
					meshes = append(meshes, broker.NewMesh(brokers[i], broker.MeshConfig{
						Peers: peers,
					}))
				}
				wantPeers[i] = n - 1
			}
		default: // ring
			for i := range brokers {
				meshes = append(meshes, broker.NewMesh(brokers[i], broker.MeshConfig{
					Peers: []string{addrs[(i+1)%n]},
				}))
				wantPeers[i] = 2
				if n == 2 {
					wantPeers[i] = 1
				}
			}
		}
		if err := waitFor(5*time.Second, func() bool {
			for i, b := range brokers {
				if b.PeerCount() < wantPeers[i] {
					return false
				}
			}
			return true
		}); err != nil {
			return res, fmt.Errorf("bench: mesh did not converge: %w", err)
		}
	}

	// Subscribers spread round-robin; each observes into its node's hop
	// histogram while the measuring flag is up and watches for duplicate
	// deliveries throughout.
	var measuring atomic.Bool
	maxHop := 0
	for i := 0; i < n; i++ {
		if d := hopDistance(cfg.Topology, i, 0, n); d > maxHop {
			maxHop = d
		}
	}
	byHop := make([]*metrics.Histogram, maxHop+1)
	for i := range byHop {
		byHop[i] = metrics.NewLatencyHistogram()
	}
	var delivered, crossMesh, dupDelivered atomic.Uint64
	heard := make([]atomic.Bool, cfg.Subscribers)

	subs := make([]*broker.Client, 0, cfg.Subscribers)
	defer func() {
		for _, c := range subs {
			c.Close()
		}
	}()
	var drainWG sync.WaitGroup
	for i := 0; i < cfg.Subscribers; i++ {
		node := i % n
		c, err := brokers[node].LocalClient(fmt.Sprintf("mesh-sub-%d", i), transport.LinkProfile{})
		if err != nil {
			return res, fmt.Errorf("bench: subscriber %d: %w", i, err)
		}
		subs = append(subs, c)
		sub, err := c.Subscribe("/bench/mesh/#", 1024)
		if err != nil {
			return res, fmt.Errorf("bench: subscribe %d: %w", i, err)
		}
		hist := byHop[hopDistance(cfg.Topology, node, 0, n)]
		got := &heard[i]
		drainWG.Add(1)
		go func() {
			defer drainWG.Done()
			seen := make(map[event.Key]struct{})
			buf := make([]*event.Event, 0, 256)
			for {
				var ok bool
				buf, ok = sub.RecvBatch(buf[:0], 256)
				if !ok {
					return
				}
				now := time.Now().UnixNano()
				for _, e := range buf {
					got.Store(true)
					if _, dup := seen[e.Key()]; dup {
						dupDelivered.Add(1)
					} else {
						seen[e.Key()] = struct{}{}
					}
					if measuring.Load() {
						delivered.Add(1)
						if node != 0 {
							crossMesh.Add(1)
						}
						if len(e.Payload) >= 8 {
							ts := int64(binary.BigEndian.Uint64(e.Payload))
							hist.Observe(float64(now-ts) / 1e6)
						}
					}
				}
				clear(buf)
			}
		}()
	}

	// Probe until every subscriber — including the far side of the mesh —
	// hears traffic, so advertisement propagation is not charged to the
	// window.
	probe, err := brokers[0].LocalClient("mesh-probe", transport.LinkProfile{})
	if err != nil {
		return res, err
	}
	defer probe.Close()
	if err := waitFor(10*time.Second, func() bool {
		// Probes carry real timestamps too: a straggler arriving inside
		// the window must parse as an ordinary (late) sample, not as
		// epoch-zero garbage.
		payload := make([]byte, cfg.PayloadBytes)
		binary.BigEndian.PutUint64(payload, uint64(time.Now().UnixNano()))
		if err := probe.Publish(meshTopic, event.KindRTP, payload); err != nil {
			return false
		}
		for i := range heard {
			if !heard[i].Load() {
				return false
			}
		}
		return true
	}); err != nil {
		return res, fmt.Errorf("bench: subscribers never converged: %w", err)
	}

	stop := make(chan struct{})
	pubErr := make(chan error, cfg.Publishers)
	var pubWG sync.WaitGroup
	for p := 0; p < cfg.Publishers; p++ {
		c, err := brokers[0].LocalClient(fmt.Sprintf("mesh-pub-%d", p), transport.LinkProfile{})
		if err != nil {
			return res, fmt.Errorf("bench: publisher %d: %w", p, err)
		}
		defer c.Close()
		pubWG.Add(1)
		go func(c *broker.Client) {
			defer pubWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				payload := make([]byte, cfg.PayloadBytes)
				binary.BigEndian.PutUint64(payload, uint64(time.Now().UnixNano()))
				if err := c.Publish(meshTopic, event.KindRTP, payload); err != nil {
					select {
					case pubErr <- err:
					default:
					}
					return
				}
			}
		}(c)
	}

	// forwardStats sums the mesh counters across every broker: events
	// put on peer links, ring duplicates absorbed, supervisor redials,
	// per-link overflow drops, and credit stalls.
	type meshStats struct {
		fwd, dup, redials, drops, stalls uint64
	}
	forwardStats := func() (s meshStats) {
		for i, b := range brokers {
			m := b.Metrics()
			s.redials += m.Counter("broker.mesh.redials").Value()
			for j := range brokers {
				if j == i {
					continue
				}
				peer := fmt.Sprintf("broker.peer.mesh-broker-%d.", j)
				s.fwd += m.Counter(peer + "forwarded").Value()
				s.dup += m.Counter(peer + "dup_dropped").Value()
				s.drops += m.Counter(peer + "queue_drops").Value()
				s.stalls += m.Counter(peer + "credit_stalls").Value()
			}
		}
		return
	}

	time.Sleep(cfg.Warmup)
	s0 := forwardStats()
	measuring.Store(true)
	t0 := time.Now()
	time.Sleep(cfg.Duration)
	measuring.Store(false)
	window := time.Since(t0).Seconds()
	s1 := forwardStats()
	close(stop)
	pubWG.Wait()

	select {
	case err := <-pubErr:
		return res, fmt.Errorf("bench: publish: %w", err)
	default:
	}

	// Quiesce so in-flight cross-mesh deliveries finish before the
	// duplicate count is read.
	time.Sleep(100 * time.Millisecond)
	for _, c := range subs {
		c.Close()
	}
	drainWG.Wait()

	res.WindowSec = window
	if window > 0 {
		res.DeliveredPerSec = float64(delivered.Load()) / window
		res.CrossMeshPerSec = float64(crossMesh.Load()) / window
		res.ForwardedPerSec = float64(s1.fwd-s0.fwd) / window
	}
	if d := delivered.Load(); d > 0 {
		res.ForwardedFramesPerDelivered = float64(s1.fwd-s0.fwd) / float64(d)
	}
	res.DupDropped = s1.dup - s0.dup
	res.DupDeliveries = dupDelivered.Load()
	res.Redials = s1.redials - s0.redials
	res.QueueOverflowDrops = s1.drops - s0.drops
	res.CreditStalls = s1.stalls - s0.stalls
	for hop, h := range byHop {
		if h.Count() == 0 {
			continue
		}
		res.Hops = append(res.Hops, HopLatency{
			Hop:    hop,
			Count:  h.Count(),
			MeanMs: h.Mean(),
			P50Ms:  h.Quantile(0.5),
			P99Ms:  h.Quantile(0.99),
		})
	}
	return res, nil
}

// waitFor polls cond every few milliseconds until it holds or the
// timeout elapses.
func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("condition not met within %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
