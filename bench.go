package globalmmcs

import (
	"fmt"
	"io"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/bench"
	"github.com/globalmmcs/globalmmcs/internal/broker"
)

// Benchmark quality gates: the §3.2 thresholds under which a client
// counts as receiving "good quality" media.
const (
	QualityMaxDelayMs  = bench.QualityMaxDelayMs
	QualityMaxJitterMs = bench.QualityMaxJitterMs
	QualityMaxLoss     = bench.QualityMaxLoss
)

// BenchSystem selects which media-distribution system a benchmark
// exercises.
type BenchSystem int

// Systems compared by the paper's Figure 3.
const (
	// BenchBroker is the NaradaBrokering-substitute broker.
	BenchBroker BenchSystem = iota + 1
	// BenchReflector is the JMF-style unicast reflector baseline.
	BenchReflector
)

// String implements fmt.Stringer.
func (s BenchSystem) String() string { return bench.System(s).String() }

// BenchSeries is one per-packet measurement series (delay or jitter in
// milliseconds, indexed by packet number).
type BenchSeries struct {
	s interface{ WriteTSV(w io.Writer) error }
}

// WriteTSV dumps the series as packet-number/milliseconds rows.
func (s *BenchSeries) WriteTSV(w io.Writer) error { return s.s.WriteTSV(w) }

// Fig3Options parameterises the Figure 3 experiment. Zero values run
// the paper-scale defaults.
type Fig3Options struct {
	// Receivers is the number of video clients (paper: 400).
	Receivers int
	// Measured is how many receivers record per-packet series (paper: 12).
	Measured int
	// Packets is the number of video packets streamed (paper: 2000).
	Packets int
}

// Fig3Report is the outcome of one Figure 3 run.
type Fig3Report struct {
	System       BenchSystem
	MeanDelayMs  float64
	MeanJitterMs float64
	Received     uint64
	Lost         uint64
	Elapsed      time.Duration
	// Delay and Jitter are the two panels of Figure 3.
	Delay  *BenchSeries
	Jitter *BenchSeries
}

// RunFig3 regenerates the paper's Figure 3 for one system: per-packet
// delay and jitter of a 600 Kbps video stream fanned out to Receivers
// clients.
func RunFig3(system BenchSystem, opt Fig3Options) (*Fig3Report, error) {
	res, err := bench.RunFig3(bench.Fig3Config{
		System:    bench.System(system),
		Receivers: opt.Receivers,
		Measured:  opt.Measured,
		Packets:   opt.Packets,
	})
	if err != nil {
		return nil, err
	}
	return &Fig3Report{
		System:       BenchSystem(res.System),
		MeanDelayMs:  res.MeanDelayMs,
		MeanJitterMs: res.MeanJitterMs,
		Received:     res.Received,
		Lost:         res.Lost,
		Elapsed:      res.Elapsed,
		Delay:        &BenchSeries{s: res.Delay},
		Jitter:       &BenchSeries{s: res.Jitter},
	}, nil
}

// MeshOptions parameterises the cross-mesh fan-out benchmark: a ring of
// federated brokers linked by supervised TCP peer links, subscribers
// spread round-robin across all nodes, publishers flooding node 0.
// Zero values run the defaults.
type MeshOptions struct {
	// Mode selects the routing mode (default BrokerClientServer).
	Mode BrokerMode
	// Brokers is the mesh size (default 4; 1 runs the single-broker
	// control cell).
	Brokers int
	// Topology shapes the peer links: "ring" (default), "star", or
	// "full".
	Topology string
	// CreditWindow overrides the per-peer-link credit window (0 keeps
	// the broker default; negative disables flow control).
	CreditWindow int
	// Subscribers is the total fan-out width across the mesh (default 64).
	Subscribers int
	// Publishers is the number of concurrent publishers on broker 0
	// (default 4).
	Publishers int
	// PayloadBytes sizes each event payload (default 1200, min 8).
	PayloadBytes int
	// Warmup runs load before the window opens (default 300ms).
	Warmup time.Duration
	// Duration is the measurement window (default 2s).
	Duration time.Duration
}

// MeshHopLatency is the delivery-latency distribution at one ring
// distance from the publishing broker.
type MeshHopLatency struct {
	Hop    int     `json:"hop"`
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// MeshReport is the outcome of one cross-mesh fan-out run. Fields carry
// JSON tags so reports can be committed as machine-readable baselines.
type MeshReport struct {
	Mode         string  `json:"mode"`
	Topology     string  `json:"topology"`
	Forwarding   string  `json:"forwarding"`
	Brokers      int     `json:"brokers"`
	Subscribers  int     `json:"subscribers"`
	Publishers   int     `json:"publishers"`
	PayloadBytes int     `json:"payload_bytes"`
	WindowSec    float64 `json:"window_sec"`
	// DeliveredPerSec is the headline number: events received by
	// subscribers per second, across the whole mesh.
	DeliveredPerSec float64 `json:"delivered_per_sec"`
	// CrossMeshPerSec is the share that crossed at least one peer link.
	CrossMeshPerSec float64 `json:"cross_mesh_per_sec"`
	// ForwardedPerSec is the rate of events put on peer links.
	ForwardedPerSec float64 `json:"forwarded_per_sec"`
	// ForwardedFramesPerDelivered is the wire-amplification ratio:
	// peer-link frames staged per client-delivered event.
	ForwardedFramesPerDelivered float64 `json:"forwarded_frames_per_delivered_event"`
	// QueueOverflowDrops sums per-peer-link best-effort overflow drops
	// during the window.
	QueueOverflowDrops uint64 `json:"queue_overflow_drops"`
	// CreditStalls sums per-peer-link credit-window stalls (events shed
	// at the sender before staging) during the window.
	CreditStalls uint64 `json:"credit_stalls"`
	// DupDropped counts ring duplicates absorbed broker-side; the
	// client-observed DupDeliveries must be zero.
	DupDropped    uint64 `json:"dup_dropped"`
	DupDeliveries uint64 `json:"dup_deliveries"`
	// Redials counts mesh supervisor redials during the run.
	Redials uint64 `json:"redials"`
	// Hops is the per-ring-distance latency distribution.
	Hops []MeshHopLatency `json:"hops"`
}

// RunMesh measures cross-mesh fan-out: a ring of federated brokers
// forwarding one publisher node's flood to subscribers spread across the
// whole mesh, reporting delivered and cross-mesh events per second,
// per-hop added latency, and loop-guard effectiveness on the cyclic
// topology. Brokers=1 runs the single-broker control the federation
// numbers are compared against.
func RunMesh(opt MeshOptions) (*MeshReport, error) {
	res, err := bench.RunMesh(bench.MeshConfig{
		Mode:         broker.Mode(opt.Mode),
		Brokers:      opt.Brokers,
		Topology:     opt.Topology,
		CreditWindow: opt.CreditWindow,
		Subscribers:  opt.Subscribers,
		Publishers:   opt.Publishers,
		PayloadBytes: opt.PayloadBytes,
		Warmup:       opt.Warmup,
		Duration:     opt.Duration,
	})
	if err != nil {
		return nil, err
	}
	r := &MeshReport{
		Mode:                        res.Mode,
		Topology:                    res.Topology,
		Forwarding:                  res.Forwarding,
		Brokers:                     res.Brokers,
		Subscribers:                 res.Subscribers,
		Publishers:                  res.Publishers,
		PayloadBytes:                res.PayloadBytes,
		WindowSec:                   res.WindowSec,
		DeliveredPerSec:             res.DeliveredPerSec,
		CrossMeshPerSec:             res.CrossMeshPerSec,
		ForwardedPerSec:             res.ForwardedPerSec,
		ForwardedFramesPerDelivered: res.ForwardedFramesPerDelivered,
		DupDropped:                  res.DupDropped,
		DupDeliveries:               res.DupDeliveries,
		Redials:                     res.Redials,
		QueueOverflowDrops:          res.QueueOverflowDrops,
		CreditStalls:                res.CreditStalls,
	}
	for _, h := range res.Hops {
		r.Hops = append(r.Hops, MeshHopLatency{
			Hop: h.Hop, Count: h.Count, MeanMs: h.MeanMs, P50Ms: h.P50Ms, P99Ms: h.P99Ms,
		})
	}
	return r, nil
}

// CapacityOptions parameterises one capacity measurement point.
type CapacityOptions struct {
	// Kind selects the stream (Audio or Video).
	Kind MediaKind
	// Clients is the number of receivers on the broker.
	Clients int
	// Packets is the number of packets streamed.
	Packets int
}

// CapacityReport is the outcome of one capacity point.
type CapacityReport struct {
	Clients      int
	MeanDelayMs  float64
	P99DelayMs   float64
	MeanJitterMs float64
	LossRate     float64
	// GoodQuality reports whether the point passed the §3.2 quality
	// gates.
	GoodQuality bool
	Elapsed     time.Duration
}

// RunCapacity measures one capacity point: one sender streaming to
// Clients receivers through a single broker — the experiment behind the
// paper's ">1000 audio / >400 video clients" claims. Kind must be Audio
// or Video.
func RunCapacity(opt CapacityOptions) (*CapacityReport, error) {
	var kind bench.MediaKind
	switch opt.Kind {
	case Audio:
		kind = bench.MediaAudio
	case Video:
		kind = bench.MediaVideo
	default:
		return nil, fmt.Errorf("globalmmcs: capacity kind %q: %w", opt.Kind, ErrNoSuchMedia)
	}
	res, err := bench.RunCapacity(bench.CapacityConfig{
		Kind:    kind,
		Clients: opt.Clients,
		Packets: opt.Packets,
	})
	if err != nil {
		return nil, err
	}
	return &CapacityReport{
		Clients:      res.Clients,
		MeanDelayMs:  res.MeanDelayMs,
		P99DelayMs:   res.P99DelayMs,
		MeanJitterMs: res.MeanJitterMs,
		LossRate:     res.LossRate,
		GoodQuality:  res.GoodQuality,
		Elapsed:      res.Elapsed,
	}, nil
}

// ChurnOptions parameterises the connection-churn benchmark: a
// reconnect-enabled subscriber on a recorded topic is repeatedly cut
// while a paced reliable publisher keeps going, and every cycle clocks
// the kill → caught-up round trip. Zero values run the defaults.
type ChurnOptions struct {
	// Cycles is how many kill/reconnect rounds to run (default 20).
	Cycles int
	// PublishRate is the paced reliable publish rate in events/sec the
	// subscriber must keep up with across cuts (default 5000).
	PublishRate int
	// PayloadBytes sizes each event payload (default 256).
	PayloadBytes int
	// SessionLinger is the broker's parked-session window (default 30s).
	SessionLinger time.Duration
}

// ChurnReport is the outcome of one churn benchmark run. The run fails
// outright if any event is lost or duplicated across the cuts, so a
// report always describes an exactly-once run.
type ChurnReport struct {
	Cycles       int `json:"cycles"`
	PublishRate  int `json:"publish_rate"`
	PayloadBytes int `json:"payload_bytes"`
	// Published and Delivered match in a valid run; Duplicates and Gaps
	// are zero.
	Published  uint64 `json:"published"`
	Delivered  uint64 `json:"delivered"`
	Duplicates uint64 `json:"duplicates"`
	Gaps       uint64 `json:"gaps"`
	// ResumesPerSec is completed kill/reconnect cycles over the run's
	// wall time.
	ResumesPerSec float64 `json:"resumes_per_sec"`
	// Catch-up latency per cycle (kill → all events published at check
	// time delivered): median, p95 and worst case in milliseconds.
	CatchupP50Ms float64 `json:"catchup_p50_ms"`
	CatchupP95Ms float64 `json:"catchup_p95_ms"`
	CatchupMaxMs float64 `json:"catchup_max_ms"`
	ElapsedSec   float64 `json:"elapsed_sec"`
}

// RunChurn measures the resilience plane under connection churn: resume
// handshake, reliable-window salvage and log-backed catch-up, end to
// end, with the exactly-once contract verified inline.
func RunChurn(opt ChurnOptions) (*ChurnReport, error) {
	res, err := bench.RunChurn(bench.ChurnConfig{
		Cycles:        opt.Cycles,
		PublishRate:   opt.PublishRate,
		PayloadBytes:  opt.PayloadBytes,
		SessionLinger: opt.SessionLinger,
	})
	if err != nil {
		return nil, err
	}
	return &ChurnReport{
		Cycles:        res.Cycles,
		PublishRate:   res.PublishRate,
		PayloadBytes:  res.PayloadBytes,
		Published:     res.Published,
		Delivered:     res.Delivered,
		Duplicates:    res.Duplicates,
		Gaps:          res.Gaps,
		ResumesPerSec: res.ResumesPerSec,
		CatchupP50Ms:  res.CatchupP50Ms,
		CatchupP95Ms:  res.CatchupP95Ms,
		CatchupMaxMs:  res.CatchupMaxMs,
		ElapsedSec:    res.ElapsedSec,
	}, nil
}
