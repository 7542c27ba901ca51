// Command gmmcs-broker runs a standalone broker node of the messaging
// middleware. Nodes link into a distributed network with -peer.
//
// Usage:
//
//	gmmcs-broker -id b1 -listen tcp://127.0.0.1:9041
//	gmmcs-broker -id b2 -listen tcp://127.0.0.1:9042 -peer tcp://127.0.0.1:9041
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/globalmmcs/globalmmcs"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		id     = flag.String("id", "broker-1", "broker identity (unique per network)")
		listen = flag.String("listen", "tcp://127.0.0.1:9041", "comma-separated listen URLs")
		peers  = flag.String("peer", "", "comma-separated peer broker URLs to keep supervised mesh links to")
		meshID = flag.String("mesh-id", "", "federation mesh identity; brokers link only when mesh IDs match (empty matches anything)")
		mode   = flag.String("mode", "client-server", "routing mode: client-server or p2p")
		stats  = flag.Duration("stats", 30*time.Second, "stats print interval (0 = off)")
		batch  = flag.Int("max-batch-bytes", 0, "per-session write batch bound (0 = default 256KiB)")
		flush  = flag.Duration("flush-interval", 0, "batch linger once a session queue idles (0 = flush immediately)")
		pprofA = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty = off)")

		record         = flag.String("record", "", "comma-separated topic patterns to record to durable topic logs for replay")
		recordDir      = flag.String("record-dir", "", "topic log root directory (empty = per-broker default under the OS temp dir)")
		recordSegBytes = flag.Int64("record-segment-bytes", 0, "topic log segment size before roll (0 = default 4MiB)")
		recordMaxSegs  = flag.Int("record-max-segments", 0, "retained segments per topic log before reaping (0 = unbounded)")
		recordMaxBytes = flag.Int64("record-max-bytes", 0, "retained bytes per topic log before reaping (0 = unbounded)")

		linger       = flag.Duration("session-linger", 0, "park dead client sessions this long awaiting a resume from a reconnecting client (0 = off)")
		drainTimeout = flag.Duration("drain-timeout", 5*time.Second, "graceful drain bound on SIGTERM/SIGINT: wait this long for clients to ack in-flight reliable traffic after GOAWAY (0 = stop immediately)")
	)
	flag.Parse()

	if *pprofA != "" {
		go func() {
			log.Printf("pprof: %v", http.ListenAndServe(*pprofA, nil))
		}()
		fmt.Printf("pprof on http://%s/debug/pprof/\n", *pprofA)
	}

	m := globalmmcs.NewMetrics()
	opts := []globalmmcs.Option{
		globalmmcs.WithBrokerID(*id),
		globalmmcs.WithBrokerListen(splitList(*listen)...),
		globalmmcs.WithPeers(splitList(*peers)...),
		globalmmcs.WithMeshID(*meshID),
		globalmmcs.WithBrokerBatching(*batch, *flush),
		globalmmcs.WithRecording(*recordDir, splitList(*record)...),
		globalmmcs.WithRecordingRetention(*recordSegBytes, *recordMaxSegs, *recordMaxBytes),
		globalmmcs.WithSessionLinger(*linger),
		globalmmcs.WithMetrics(m),
	}
	switch *mode {
	case "client-server":
	case "p2p":
		opts = append(opts, globalmmcs.WithPeerToPeer())
	default:
		return fmt.Errorf("unknown -mode %q (want client-server or p2p)", *mode)
	}
	// Peer links are supervised: each is dialed (and redialed with backoff
	// after drops) in the background, so a peer that is not up yet is not
	// fatal — the link converges when it appears.
	b, err := globalmmcs.NewBroker(opts...)
	if err != nil {
		return err
	}
	defer b.Stop()

	for _, addr := range b.Addrs() {
		fmt.Printf("broker %s listening on %s (%s mode)\n", *id, addr, *mode)
	}
	for _, p := range splitList(*record) {
		fmt.Printf("recording %s\n", p)
	}
	for _, url := range splitList(*peers) {
		fmt.Printf("supervising mesh link to %s\n", url)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if *stats <= 0 {
		<-ctx.Done()
		return drain(b, *drainTimeout)
	}
	ticker := time.NewTicker(*stats)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return drain(b, *drainTimeout)
		case <-ticker.C:
			fmt.Printf("sessions=%d peers=%d\n", b.SessionCount(), b.PeerCount())
			for _, l := range b.PeerLinks() {
				fmt.Printf("link %s state=%s remote=%q redials=%d\n", l.URL, l.State, l.RemoteID, l.Redials)
			}
			fmt.Print(m.Report())
		}
	}
}

// drain winds the broker down gracefully, bounded by the -drain-timeout
// flag; the deferred Stop in run finishes the shutdown either way.
func drain(b *globalmmcs.Broker, timeout time.Duration) error {
	if timeout <= 0 {
		return nil
	}
	fmt.Printf("draining (timeout %s)\n", timeout)
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := b.Drain(ctx); err != nil {
		fmt.Printf("drain: %v\n", err)
	} else {
		fmt.Println("drained")
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
