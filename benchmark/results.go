package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Loop     string    `json:"loop"`
	Seconds  float64   `json:"measured_seconds"`
	Samples  uint64    `json:"latency_samples"`
	Tally    tally     `json:"self_check"`
	GenLate  bool      `json:"generator_late,omitempty"` // open loop: the median tick ran over 1 ms late
	EndToEnd metricSet `json:"end_to_end"`
	// Info holds numbers that are printed but carry no bound.
	Info metricSet `json:"informational"`
	// PerLayer is filled by a traced run.
	PerLayer    metricSet        `json:"per_layer,omitempty"`
	Attribution []attributionRow `json:"attribution,omitempty"`
	TraceFile   string           `json:"trace_file,omitempty"`
}

// windowStats collects the end-to-end series of one or more windows,
// one value per one-second slice. The reported metrics are their
// medians, so a run measured on several instances of a workload pools
// the slices of all of them.
type windowStats struct {
	eps, p50, p99 []float64 // delays in ns
	jitter        []float64 // mean over subscribers of their mean |D(i) - D(i-1)|, ns
	whole         hist      // every delay sample
	deliveries    uint64
}

func (ws *windowStats) add(w *window) {
	sliceSec := min(float64(w.dur), float64(time.Second)) / 1e9
	for k := range w.recs[0].counts {
		var n uint64
		var h hist
		var jit, jitSubs float64
		for _, r := range w.recs {
			n += r.counts[k]
			if r.delayed {
				h.merge(&r.delays[k])
				if r.jitN[k] > 0 {
					jit += r.jitSum[k] / float64(r.jitN[k])
					jitSubs++
				}
			}
		}
		ws.deliveries += n
		ws.eps = append(ws.eps, float64(n)/sliceSec)
		if h.n > 0 {
			ws.p50 = append(ws.p50, h.quantile(0.50))
			ws.p99 = append(ws.p99, h.quantile(0.99))
		}
		if jitSubs > 0 {
			ws.jitter = append(ws.jitter, jit/jitSubs)
		}
		ws.whole.merge(&h)
	}
}

const msPerNs = 1e-6

func (ws *windowStats) endToEnd(setupS float64) metricSet {
	m := metricSet{}
	m.set("delivered_eps", median(ws.eps), "events/s")
	m.set("latency_p50_ms", median(ws.p50)*msPerNs, "ms")
	m.set("latency_p99_ms", median(ws.p99)*msPerNs, "ms")
	m.set("jitter_ms", median(ws.jitter)*msPerNs, "ms")
	m.set("setup_s", setupS, "s")
	return m
}

// procMetrics derives the process-level layer from the two boundary
// samples of a window.
func procMetrics(w *window, deliveries uint64, into metricSet) {
	cpu := float64(w.after.cpuNs - w.before.cpuNs)
	d := float64(deliveries)
	into.set("proc.cpu_ns_per_delivery", cpu/d, "ns")
	into.set("proc.allocs_per_delivery", float64(w.after.allocs-w.before.allocs)/d, "count")
	into.set("proc.gc_cpu_share", (w.after.gcCPUs-w.before.gcCPUs)*1e9/cpu, "ratio")
}

// counterMetrics turns the boundary counter snapshots into the
// in-run layer counters.
func counterMetrics(w *window, into metricSet) {
	delta := func(name string) float64 { return w.after.counters[name] - w.before.counters[name] }
	for _, n := range []string{"broker.events_routed", "broker.queue_drops", "broker.credit_stalls", "broker.retransmits"} {
		into.set(n, delta(n), "count")
	}
	into.set("broker.events_per_pool_service", delta("pool.drained")/delta("pool.services"), "count")
	into.set("client.events_per_wakeup", delta("client.events")/delta("client.wakeups"), "count")
	into.set("client.ring_occupancy_max", w.after.counters["client.ring_occupancy_max"], "count")
	into.set("client.drops", delta("client.drops"), "count")
	into.set("sdk.stream_drops", delta("sdk.stream_drops"), "count")
}

// printMetrics writes a metric set as an aligned table, in name order.
func printMetrics(out io.Writer, title string, m metricSet) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "  %s\n", title)
	for _, n := range names {
		fmt.Fprintf(out, "    %-34s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
