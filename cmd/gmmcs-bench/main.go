// Command gmmcs-bench regenerates the paper's evaluation:
//
//   - "-exp fig3": Figure 3 — per-packet delay and jitter for 12 of 400
//     video clients, NaradaBrokering-substitute broker vs JMF-style
//     reflector (writes the four series as TSV for plotting).
//   - "-exp audiocap": the §3.2 claim that one broker supports >1000
//     audio clients.
//   - "-exp videocap": the §3.2 claim that one broker supports >400
//     video clients.
//   - "-exp mesh": cross-mesh fan-out over a ring of federated brokers
//     (supervised peer links, loop-guarded cyclic topology) versus the
//     single-broker control.
//   - "-exp churn": the resilience plane — a reconnect-enabled
//     subscriber is repeatedly cut mid reliable stream and each cycle
//     clocks kill → caught-up (resume, window salvage, log-backed
//     catch-up), with exactly-once delivery verified inline.
//
// Broker throughput, latency and replay are measured by the benchmark/
// module instead (see benchmark/README.md).
//
// Full paper-scale runs take a few minutes (they are paced in real time
// like the original testbed); -scale shrinks them for a quick look, and
// -short shrinks everything to CI scale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/bench"
	"github.com/globalmmcs/globalmmcs/internal/metrics"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		exp    = flag.String("exp", "fig3", "experiment: fig3, audiocap, videocap, mesh, churn, all")
		scale  = flag.Float64("scale", 1.0, "workload scale factor (1.0 = paper scale)")
		outDir = flag.String("out", "bench-out", "directory for TSV series dumps")
		subs   = flag.Int("fanout-subs", 64, "mesh: subscriber count")
		pubs   = flag.Int("fanout-pubs", 4, "mesh: publisher count")
		window = flag.Duration("ingest-window", 2*time.Second, "mesh: steady-state measurement window")
		topo   = flag.String("mesh-topology", "ring", "mesh: peer-link topology (ring, star, full)")
		short  = flag.Bool("short", false, "shrink runs for a quick (or CI) look")
		pprofA = flag.String("pprof", "", "serve net/http/pprof on this address while the experiment runs (empty = off)")
		cpuOut = flag.String("cpuprofile", "", "write a CPU profile of the experiment to this file")

		churnCycles = flag.Int("churn-cycles", 20, "churn: kill/reconnect rounds")
		churnRate   = flag.Int("churn-rate", 5000, "churn: paced reliable publish rate (events/sec)")
	)
	flag.Parse()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	if *pprofA != "" {
		go func() {
			log.Printf("pprof: %v", http.ListenAndServe(*pprofA, nil))
		}()
		fmt.Fprintf(os.Stderr, "pprof on http://%s/debug/pprof/\n", *pprofA)
	}
	if *cpuOut != "" {
		f, err := os.Create(*cpuOut)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "cpu profile written to %s\n", *cpuOut)
		}()
	}
	if *short {
		*scale = min(*scale, 0.05)
		*subs = min(*subs, 16)
		*window = min(*window, 300*time.Millisecond)
		*churnCycles = min(*churnCycles, 8)
		*churnRate = min(*churnRate, 2000)
	}
	switch *exp {
	case "fig3":
		return runFig3(*scale, *outDir)
	case "audiocap":
		return runCapacity(bench.MediaAudio, *scale)
	case "videocap":
		return runCapacity(bench.MediaVideo, *scale)
	case "mesh":
		return runMesh(*topo, *subs, *pubs, *window)
	case "churn":
		return runChurn(*churnCycles, *churnRate)
	case "all":
		if err := runFig3(*scale, *outDir); err != nil {
			return err
		}
		if err := runCapacity(bench.MediaAudio, *scale); err != nil {
			return err
		}
		if err := runCapacity(bench.MediaVideo, *scale); err != nil {
			return err
		}
		if err := runMesh(*topo, *subs, *pubs, *window); err != nil {
			return err
		}
		return runChurn(*churnCycles, *churnRate)
	default:
		return fmt.Errorf("unknown experiment %q", *exp)
	}
}

// runMesh measures cross-mesh fan-out over a 4-broker routed
// federation and the single-broker control cell, and prints the reports
// as a JSON array (the format of BENCH_broker.json's mesh section).
func runMesh(topology string, subs, pubs int, window time.Duration) error {
	fmt.Fprintf(os.Stderr, "=== Cross-mesh fan-out (%s): %d subscribers, %d publishers on node 0, %s window ===\n",
		topology, subs, pubs, window)
	cells := []struct {
		label   string
		brokers int
	}{
		{"4-broker routed", 4},
		{"single control", 1},
	}
	var reports []bench.MeshResult
	for _, cell := range cells {
		res, err := bench.RunMesh(bench.MeshConfig{
			Brokers:     cell.brokers,
			Topology:    topology,
			Subscribers: subs,
			Publishers:  pubs,
			Duration:    window,
		})
		if err != nil {
			return fmt.Errorf("mesh: %w", err)
		}
		fmt.Fprintf(os.Stderr, "%-15s %12.0f delivered/s %12.0f cross-mesh/s %12.0f forwarded/s  fwd/delivered %.3f  dup_dropped %d  dup_delivered %d  overflow_drops %d  credit_stalls %d\n",
			cell.label, res.DeliveredPerSec, res.CrossMeshPerSec, res.ForwardedPerSec,
			res.ForwardedFramesPerDelivered, res.DupDropped, res.DupDeliveries,
			res.QueueOverflowDrops, res.CreditStalls)
		for _, h := range res.Hops {
			fmt.Fprintf(os.Stderr, "    hop %d: p50 %.2f ms  p99 %.2f ms  (n=%d)\n", h.Hop, h.P50Ms, h.P99Ms, h.Count)
		}
		if res.DupDeliveries != 0 {
			return fmt.Errorf("mesh: clients observed %d duplicate deliveries on the cyclic topology", res.DupDeliveries)
		}
		reports = append(reports, res)
	}
	out, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runChurn measures the resilience plane under connection churn and
// prints the report as JSON (the format of BENCH_broker.json's churn
// section). The run itself enforces exactly-once delivery: any lost or
// duplicated event across the cuts is an error, not a statistic.
func runChurn(cycles, rate int) error {
	fmt.Fprintf(os.Stderr, "=== Connection churn: %d kill/reconnect cycles against a %d ev/s reliable stream ===\n",
		cycles, rate)
	res, err := bench.RunChurn(bench.ChurnConfig{
		Cycles:      cycles,
		PublishRate: rate,
	})
	if err != nil {
		return fmt.Errorf("churn: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%.1f resumes/s   catch-up p50 %6.1f ms  p95 %6.1f ms  max %6.1f ms   %d/%d delivered (dups %d, gaps %d)\n",
		res.ResumesPerSec, res.CatchupP50Ms, res.CatchupP95Ms, res.CatchupMaxMs,
		res.Delivered, res.Published, res.Duplicates, res.Gaps)
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func runFig3(scale float64, outDir string) error {
	receivers := scaled(400, scale)
	packets := scaled(2000, scale)
	measured := min(12, receivers)
	fmt.Printf("=== Figure 3: %d receivers (%d measured), %d packets, 600 Kbps video ===\n",
		receivers, measured, packets)
	fmt.Println("paper: NaradaBrokering avg delay 80.76 ms, jitter 13.38 ms")
	fmt.Println("paper: JMF reflector   avg delay 229.23 ms, jitter 15.55 ms")

	for _, system := range []bench.System{bench.SystemBroker, bench.SystemReflector} {
		res, err := bench.RunFig3(bench.Fig3Config{
			System:    system,
			Receivers: receivers,
			Measured:  measured,
			Packets:   packets,
		})
		if err != nil {
			return fmt.Errorf("fig3 %s: %w", system, err)
		}
		fmt.Printf("%-18s avg delay %8.2f ms   avg jitter %6.2f ms   received %6d   lost %d   (%.1fs)\n",
			system, res.MeanDelayMs, res.MeanJitterMs, res.Received, res.Lost, res.Elapsed.Seconds())
		base := strings.ToLower(strings.ReplaceAll(system.String(), "-", ""))
		if err := dumpSeries(filepath.Join(outDir, "fig3_delay_"+base+".tsv"), res.Delay); err != nil {
			return err
		}
		if err := dumpSeries(filepath.Join(outDir, "fig3_jitter_"+base+".tsv"), res.Jitter); err != nil {
			return err
		}
	}
	fmt.Printf("series written to %s/fig3_*.tsv (packet-number vs milliseconds)\n", outDir)
	return nil
}

func runCapacity(kind bench.MediaKind, scale float64) error {
	var sweep []int
	var packets int
	if kind == bench.MediaAudio {
		sweep = []int{250, 500, 750, 1000, 1250}
		packets = 400 // 8s of audio
		fmt.Println("=== Capacity: audio clients on one broker (paper claim: >1000 with good quality) ===")
	} else {
		sweep = []int{100, 200, 400, 500}
		packets = 600 // ~8s of video
		fmt.Println("=== Capacity: video clients on one broker (paper claim: >400 with good quality) ===")
	}
	fmt.Printf("quality gate: delay < %.0f ms, jitter < %.0f ms, loss < %.0f%%\n",
		bench.QualityMaxDelayMs, bench.QualityMaxJitterMs, bench.QualityMaxLoss*100)
	fmt.Printf("%8s %14s %14s %14s %10s %8s\n", "clients", "mean delay", "p99 delay", "mean jitter", "loss", "quality")
	for _, n := range sweep {
		clients := scaled(n, scale)
		res, err := bench.RunCapacity(bench.CapacityConfig{
			Kind:    kind,
			Clients: clients,
			Packets: scaled(packets, scale),
		})
		if err != nil {
			return fmt.Errorf("capacity %s/%d: %w", kind, clients, err)
		}
		quality := "GOOD"
		if !res.GoodQuality {
			quality = "degraded"
		}
		fmt.Printf("%8d %11.2f ms %11.2f ms %11.2f ms %9.2f%% %8s\n",
			res.Clients, res.MeanDelayMs, res.P99DelayMs, res.MeanJitterMs, res.LossRate*100, quality)
	}
	return nil
}

func dumpSeries(path string, s *metrics.Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := s.WriteTSV(f); err != nil {
		return err
	}
	return f.Close()
}

func scaled(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		v = 1
	}
	return v
}
