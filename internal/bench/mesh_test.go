package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"
	"time"
)

// quickMesh shrinks the cross-mesh fan-out run so it completes in a few
// seconds; it runs even with -short (and under -race in CI) so the
// federation forwarding path — mesh link supervision, loop guard,
// cross-broker burst forwarding — is exercised on every push.
func quickMesh() MeshConfig {
	return MeshConfig{
		Brokers:     4,
		Subscribers: 8,
		Publishers:  2,
		Warmup:      50 * time.Millisecond,
		Duration:    200 * time.Millisecond,
	}
}

func TestMesh(t *testing.T) {
	res, err := RunMesh(quickMesh())
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredPerSec <= 0 {
		t.Fatalf("delivered/sec = %v", res.DeliveredPerSec)
	}
	if res.CrossMeshPerSec <= 0 {
		t.Fatalf("cross-mesh/sec = %v (nothing crossed a peer link)", res.CrossMeshPerSec)
	}
	if res.DupDeliveries != 0 {
		t.Fatalf("clients observed %d duplicate deliveries on the cyclic mesh", res.DupDeliveries)
	}
	t.Log(res)
}

// TestMeshControl runs the single-broker control cell the federation
// numbers are compared against.
func TestMeshControl(t *testing.T) {
	cfg := quickMesh()
	cfg.Brokers = 1
	res, err := RunMesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredPerSec <= 0 {
		t.Fatalf("delivered/sec = %v", res.DeliveredPerSec)
	}
	if res.CrossMeshPerSec != 0 {
		t.Fatalf("cross-mesh/sec = %v on a single broker", res.CrossMeshPerSec)
	}
	if res.DupDeliveries != 0 {
		t.Fatalf("clients observed %d duplicate deliveries", res.DupDeliveries)
	}
	t.Log(res)
}

// TestMeshJSONDump emits full-size mesh runs as JSON lines for the
// BENCH_broker.json recording script. Gated behind MESH_DUMP so normal
// test runs stay fast.
func TestMeshJSONDump(t *testing.T) {
	if os.Getenv("MESH_DUMP") == "" {
		t.Skip("set MESH_DUMP=1 to run")
	}
	for _, brokers := range []int{4, 1} {
		res, err := RunMesh(MeshConfig{Brokers: brokers})
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(res)
		fmt.Printf("MESHJSON %s\n", b)
	}
}

// TestReportJSONKeys pins the JSON keys gmmcs-bench prints for -exp mesh
// and -exp churn, the format BENCH_broker.json's mesh and churn sections
// are assembled from. A renamed or dropped tag fails here, not in a
// recorded baseline.
func TestReportJSONKeys(t *testing.T) {
	mesh := MeshResult{Hops: []HopLatency{{Hop: 1}}}
	checkJSONKeys(t, "mesh", mesh, []string{
		"mode", "topology", "forwarding", "brokers", "subscribers", "publishers",
		"payload_bytes", "window_sec", "delivered_per_sec", "cross_mesh_per_sec",
		"forwarded_per_sec", "forwarded_frames_per_delivered_event",
		"queue_overflow_drops", "credit_stalls", "dup_dropped", "dup_deliveries",
		"redials", "hops",
	})
	checkJSONKeys(t, "mesh hop", mesh.Hops[0], []string{"hop", "count", "mean_ms", "p50_ms", "p99_ms"})
	checkJSONKeys(t, "churn", ChurnResult{}, []string{
		"cycles", "publish_rate", "payload_bytes", "published", "delivered",
		"duplicates", "gaps", "resumes_per_sec", "catchup_p50_ms", "catchup_p95_ms",
		"catchup_max_ms", "elapsed_sec",
	})
}

// checkJSONKeys marshals v and compares its top-level object keys with
// want, ignoring order.
func checkJSONKeys(t *testing.T, name string, v any, want []string) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(b, &obj); err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(obj))
	for k := range obj {
		got = append(got, k)
	}
	slices.Sort(got)
	want = slices.Sorted(slices.Values(want))
	if !slices.Equal(got, want) {
		t.Errorf("%s JSON keys = %v, want %v", name, got, want)
	}
}
