package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Spans are recorded by the benchmark around its own calls into the
// program, for one event in traceEvery, and kept in memory until the
// run ends. A sampled event's spans share its (publisher, seq) id:
//
//	sdk.publish  Publish call entry -> return
//	flight       Publish return -> the receive call's return   (parent sdk.publish)
//	sdk.recv     receive call entry -> return, split into the wait before
//	             the event existed and the rest (busy)
type pubSpan struct {
	pub               int
	seq               uint64
	entered, returned int64
}

type recvSpan struct {
	pub, sub          int
	seq               uint64
	entered, returned int64
}

// spanRecord is one line of the trace file.
type spanRecord struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Sub    *int   `json:"subscriber,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	WaitNs *int64 `json:"wait_ns,omitempty"`
	BusyNs *int64 `json:"busy_ns,omitempty"`
}

// spanStats is what the spans reduce to.
type spanStats struct {
	publishNs          float64 // mean time inside a publish call, every event
	flightNs           float64 // median publish return -> receive return, sampled
	recvWait, recvBusy float64 // mean split of the receive call, sampled
}

// writeTrace joins the publish and receive spans, writes them as JSON
// lines and returns their summary.
func (e *engine) writeTrace(path string) (spanStats, error) {
	var st spanStats
	pubs := make(map[[2]uint64]pubSpan)
	var pubNs, pubCalls int64
	for _, ps := range e.pubs {
		pubNs += ps.pubNs
		pubCalls += ps.pubCalls
		for _, sp := range ps.spans {
			pubs[[2]uint64{uint64(sp.pub), sp.seq}] = sp
		}
	}
	if pubCalls > 0 {
		st.publishNs = float64(pubNs) / float64(pubCalls)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return st, err
	}
	f, err := os.Create(path)
	if err != nil {
		return st, err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	put := func(r spanRecord) {
		if err == nil {
			err = enc.Encode(r)
		}
	}
	for key, sp := range pubs {
		put(spanRecord{Name: "sdk.publish", ID: spanID(e.spec.name, key), Start: sp.entered, End: sp.returned})
	}
	var flights hist
	var n float64
	for _, s := range e.sinks {
		for _, rs := range s.spans {
			key := [2]uint64{uint64(rs.pub), rs.seq}
			ps, ok := pubs[key]
			if !ok {
				continue // published before the traced window opened
			}
			id, sub := spanID(e.spec.name, key), rs.sub
			put(spanRecord{Name: "flight", ID: id, Parent: "sdk.publish", Sub: &sub, Start: ps.returned, End: rs.returned})
			// The receiver only waits idle while the event does not
			// exist yet; from Publish entry on, the call is busy with it.
			wait := min(rs.returned, ps.entered) - rs.entered
			if wait < 0 {
				wait = 0
			}
			busy := rs.returned - rs.entered - wait
			put(spanRecord{Name: "sdk.recv", ID: id, Sub: &sub, Start: rs.entered, End: rs.returned, WaitNs: &wait, BusyNs: &busy})
			flights.add(rs.returned - ps.returned)
			st.recvWait += float64(wait)
			st.recvBusy += float64(busy)
			n++
		}
	}
	if n > 0 {
		st.recvWait /= n
		st.recvBusy /= n
		st.flightNs = flights.quantile(0.5)
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Close()
	}
	return st, err
}

func spanID(workload string, key [2]uint64) string {
	return fmt.Sprintf("%s/p%d/%d", workload, key[0], key[1])
}

// layerUse says one layer runs perDelivery times per delivered event
// on a workload, at the cost the ladder measured as metric.
type layerUse struct {
	layer, metric string
	perDelivery   float64
}

// attributionRow is one line of the attribution table.
type attributionRow struct {
	Layer            string  `json:"layer"`
	Metric           string  `json:"metric"`
	NsPerCall        float64 `json:"ns_per_call"`
	CallsPerDelivery float64 `json:"calls_per_delivery"`
	NsPerDelivery    float64 `json:"ns_per_delivery"`
	Share            float64 `json:"share_of_cpu_ns_per_delivery"`
}

// tcpLayers is the path of a delivery over loopback tcp: one publish
// and one broker ingest per event, then route, write, read, ring and
// check once per delivery. Rows at zero calls are predictions: that
// layer must not show up on this workload.
func tcpLayers(publishMetric string, facadeRecv, recorded bool) func(fanout, replayed float64) []layerUse {
	return func(fanout, replayed float64) []layerUse {
		rows := []layerUse{
			{"harness: stamp payload", "harness.stamp_ns", 1 / fanout},
			{"publisher: publish call", publishMetric, 1 / fanout},
			{"broker ingest: tcp read + decode", "transport.recv_ns", 1 / fanout},
			{"broker: route + enqueue, per target", "broker.publish_ns", 1},
			{"broker egress: batch + write", "transport.send_ns", 1},
			{"client ingest: tcp read + decode", "transport.recv_ns", 1},
			{"client ring: RecvBatch", "client.recv_ns", 1},
			{"harness: checksum, order, histogram", "harness.check_ns", 1},
		}
		sdkRecv, logAppend := 0.0, 0.0
		if facadeRecv {
			sdkRecv = 1
		}
		if recorded {
			logAppend = 1 / fanout
		}
		return append(rows,
			layerUse{"sdk: BrokerSubscription.Recv", "sdk.recv_busy_ns", sdkRecv},
			layerUse{"topiclog: Append", "topiclog.append_ns", logAppend},
			layerUse{"topiclog: Cursor.Next", "topiclog.next_ns", replayed})
	}
}

// inprocLayers is the path of a delivery inside one process: the mem
// transport moves pointers, so codec, transport and log are predicted
// to cost nothing.
func inprocLayers(fanout, _ float64) []layerUse {
	return []layerUse{
		{"harness: stamp payload", "harness.stamp_ns", 1 / fanout},
		{"sdk: Publisher.Publish", "sdk.publish_ns", 1 / fanout},
		{"broker: route + enqueue, per target", "broker.publish_ns", 1},
		{"client ring: RecvBatch (Stream pump)", "client.recv_ns", 1},
		{"sdk: Stream.Recv", "sdk.recv_busy_ns", 1},
		{"harness: checksum, order, histogram", "harness.check_ns", 1},
		{"event.*: codec", "event.unmarshal_ns", 0},
		{"transport.*: tcp read + write", "transport.recv_ns", 0},
		{"topiclog.*", "topiclog.append_ns", 0},
	}
}

// attribute multiplies the ladder's per-call costs by how often each
// layer runs per delivery and sets the sum against the CPU the process
// really spent per delivery.
func attribute(uses []layerUse, layers metricSet, cpuPerDelivery float64) (rows []attributionRow, unexplained float64) {
	var explained float64
	for _, u := range uses {
		r := attributionRow{Layer: u.layer, Metric: u.metric, NsPerCall: layers[u.metric].Value, CallsPerDelivery: u.perDelivery}
		r.NsPerDelivery = r.NsPerCall * r.CallsPerDelivery
		r.Share = r.NsPerDelivery / cpuPerDelivery
		explained += r.NsPerDelivery
		rows = append(rows, r)
	}
	return rows, 1 - explained/cpuPerDelivery
}

func printAttribution(out io.Writer, rows []attributionRow) {
	fmt.Fprintf(out, "  attribution (ladder ns/call x calls/delivery, against proc.cpu_ns_per_delivery)\n")
	fmt.Fprintf(out, "    %-40s %-22s %10s %10s %10s %7s\n", "layer", "metric", "ns/call", "calls/dlv", "ns/dlv", "share")
	for _, r := range rows {
		fmt.Fprintf(out, "    %-40s %-22s %10.1f %10.4f %10.1f %6.1f%%\n",
			r.Layer, r.Metric, r.NsPerCall, r.CallsPerDelivery, r.NsPerDelivery, 100*r.Share)
	}
}

// traceReport fills res.PerLayer from the traced window tw (ws holds
// the untraced window before it): the ladder, the counters and process
// costs at the window's boundaries, the span summary, the attribution
// table and the cost of tracing itself.
func (e *engine) traceReport(res *runResult, ws *windowStats, tw *window, scale float64) error {
	var tws windowStats
	tws.add(tw)
	var fanout int
	for _, f := range e.rig.fanout {
		fanout = max(fanout, f)
	}
	layers, err := runLadder(e.spec, fanout, e.dir, scale)
	if err != nil {
		return err
	}
	counterMetrics(tw, layers)
	procMetrics(tw, tws.deliveries, layers)

	res.TraceFile = filepath.Join(benchDir(), "out", "trace-"+e.spec.name+".jsonl")
	st, err := e.writeTrace(res.TraceFile)
	if err != nil {
		return err
	}
	layers.set("trace.publish_ns", st.publishNs, "ns")
	layers.set("trace.flight_ns", st.flightNs, "ns")
	layers.set("trace.recv_wait_ns", st.recvWait, "ns")
	layers.set("trace.recv_busy_ns", st.recvBusy, "ns")

	// Deliveries per publish as measured, and the share of deliveries
	// that came out of the log rather than off the live path.
	var published, replayed float64
	for _, ps := range e.pubs {
		published += float64(ps.pubCalls)
	}
	for i, s := range e.sinks {
		if s.sub.replay {
			for _, c := range tw.recs[i].counts {
				replayed += float64(c)
			}
		}
	}
	perPublish := float64(tws.deliveries) / published
	var unexplained float64
	res.Attribution, unexplained = attribute(e.spec.layers(perPublish, replayed/float64(tws.deliveries)), layers, layers["proc.cpu_ns_per_delivery"].Value)
	layers.set("attribution.unexplained_share", unexplained, "ratio")

	// Tracing costs throughput in a closed loop and delay in an open one.
	overhead := (median(ws.eps) - median(tws.eps)) / median(ws.eps)
	if e.spec.rate > 0 {
		overhead = (median(tws.p50) - median(ws.p50)) / median(ws.p50)
	}
	layers.set("trace_overhead", overhead, "ratio")

	layers.set("selfcheck.loss_ratio", res.Info["loss_ratio"].Value, "ratio")
	layers.set("generator.lag_p99_ms", res.Info["gen_lag_p99_ms"].Value, "ms")    // 0 in a closed loop
	layers.set("generator.inflight_max", res.Info["inflight_max"].Value, "count") // 0 in an open loop
	res.PerLayer = layers
	return nil
}
