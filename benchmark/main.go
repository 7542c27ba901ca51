// Command benchmark is the repository's benchmark: five conferencing
// workloads measured end to end (delivered rate, one-way delay, jitter,
// set-up time), a per-layer ladder and traced attribution underneath,
// and a self-check that every delivered byte is the byte published.
// See README.md beside this file and BENCHMARK.json at the repository
// root.
//
//	go run . -workload lecture-flood -seed 1 -seconds 12 -trace 0
//	go run . -workload all -seed 1 -json out/a.json
//	go run . -compare out/a.json out/b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runInstances is how many times an untraced run builds, warms and
// measures the workload.
const runInstances = 5

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed for payload bytes, room membership, publish order and joiner phase")
		seconds  = flag.Int("seconds", 20, "length of the measured window")
		trace    = flag.Int("trace", 0, "1: spend the second half of the window traced and report the per-layer metrics")
		jsonOut  = flag.String("json", "", "write the full results to this file")
		sets     = flag.Int("sets", 1, "with -json: how many times to run the selected workloads")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare a.json b.json"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fatal(fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs of this host: the numbers would measure the scheduler",
			runtime.GOMAXPROCS(0), runtime.NumCPU()))
	}
	var chosen []*spec
	if *workload == "all" {
		chosen = specs
	} else if s := findSpec(*workload); s != nil {
		chosen = []*spec{s}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds < 1 || (*trace == 1 && *seconds < 2) {
		fatal(errors.New("-seconds must be at least 1 (2 with -trace 1)"))
	}

	var file resultFile
	failed := false
	for set := 0; set < *sets; set++ {
		for _, sp := range chosen {
			res, err := runWorkload(context.Background(), sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1, runInstances, 1)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", sp.name, err))
			}
			res.print(os.Stdout)
			failed = failed || res.Tally.failed() > 0 || res.GenLate
			file.Runs = append(file.Runs, res)
			fmt.Println(res.driverLine(*trace == 1))
		}
	}
	if *jsonOut != "" {
		file.Env = describeEnv(*seed)
		if err := file.write(*jsonOut); err != nil {
			fatal(err)
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchmark: self-check failed (see loss_ratio / gen_lag_p99_ms above)")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// benchDir locates the benchmark's own directory from the working
// directory: the repository root (where BENCHMARK.json lives) or the
// benchmark directory itself.
func benchDir() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return "benchmark"
	}
	return "."
}

// envInfo records where and on what a result file was produced.
type envInfo struct {
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Link       string `json:"link"`
}

func describeEnv(seed int64) envInfo {
	env := envInfo{
		Seed: seed, Commit: "unknown", CPUModel: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Link: "loopback",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// resultFile is what -json writes and -compare reads.
type resultFile struct {
	Env  envInfo      `json:"env"`
	Runs []*runResult `json:"runs"`
}

func (f *resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// runWorkload runs one workload. An untraced run builds the workload
// `instances` times and measures each instance for an equal share of
// dur, because on a small shared host whole instances differ more than
// the seconds of one instance do; setup_s is the median build time. A
// traced run measures one instance, the second half of dur traced.
// scale is 1 except in the smoke test.
func runWorkload(ctx context.Context, sp *spec, seed int64, dur time.Duration, traced bool, instances int, scale float64) (*runResult, error) {
	dir, err := scratchDir()
	if err != nil {
		return nil, err
	}
	if traced {
		instances = 1
		dur /= 2
	}
	res := &runResult{Workload: sp.name, Seed: seed, Loop: sp.loop(), Info: metricSet{}}
	var ws windowStats
	var setupS []float64
	var lag hist
	var inflight, cpuNs, wallNs int64
	var last *engine
	var traceWin *window
	for i := 0; i < instances; i++ {
		began := nowNs()
		e := newEngine(sp, seed, dir, scale)
		if err := e.start(ctx); err != nil {
			if e.rig != nil {
				e.finish()
			}
			return nil, err
		}
		setupS = append(setupS, float64(nowNs()-began)/1e9)
		w, err := e.measure(ctx, dur/time.Duration(instances), false)
		var tw *window
		if err == nil && traced {
			tw, err = e.measure(ctx, dur, true)
		}
		res.Tally.add(e.finish())
		if err != nil {
			return nil, err
		}
		ws.add(w)
		cpuNs += w.after.cpuNs - w.before.cpuNs
		wallNs += w.after.at - w.before.at
		for _, ps := range e.pubs {
			lag.merge(&ps.lag)
			inflight = max(inflight, ps.inflightM)
		}
		last, traceWin = e, tw
	}
	res.Seconds, res.Samples = dur.Seconds(), ws.whole.n
	res.EndToEnd = ws.endToEnd(median(setupS))
	res.Info.set("latency_p999_ms", ws.whole.quantile(0.999)*msPerNs, "ms")
	res.Info.set("latency_max_ms", float64(ws.whole.max)*msPerNs, "ms")
	res.Info.set("loss_ratio", float64(res.Tally.failed())/float64(res.Tally.Expected), "ratio")
	res.Info.set("cpu_utilisation", float64(cpuNs)/float64(wallNs)/float64(runtime.NumCPU()), "ratio")
	if sp.rate > 0 {
		res.Info.set("gen_lag_p50_ms", lag.quantile(0.50)*msPerNs, "ms")
		res.Info.set("gen_lag_p99_ms", lag.quantile(0.99)*msPerNs, "ms")
		// A generator whose median tick runs a whole tick late is not
		// holding its schedule: the run measured the generator.
		res.GenLate = lag.quantile(0.50) > float64(tick)
	} else {
		res.Info.set("inflight_max", float64(inflight), "count")
	}
	if traced {
		if err := last.traceReport(res, &ws, traceWin, scale); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (t *tally) add(o tally) {
	t.Expected += o.Expected
	t.Correct += o.Correct
	t.Missing += o.Missing
	t.Dups += o.Dups
	t.Bad += o.Bad
	t.PubErrors += o.PubErrors
}

// driverLine is the one-line JSON result the benchmark contract asks
// for: the end-to-end metrics of an untraced run, the per-layer
// metrics of a traced one.
func (r *runResult) driverLine(traced bool) string {
	m := r.EndToEnd
	if traced {
		m = r.PerLayer
	}
	attempted := max(r.Tally.Expected, 1)
	b, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted uint64    `json:"attempted"`
		Failed    uint64    `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{r.Tally.failed() == 0 && !r.GenLate, attempted, r.Tally.failed(), m})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

func (r *runResult) print(out io.Writer) {
	fmt.Fprintf(out, "%s  [%s; loopback TCP or in-process, seed %d, %.1f s measured, %d latency samples]\n",
		r.Workload, r.Loop, r.Seed, r.Seconds, r.Samples)
	printMetrics(out, "end to end", r.EndToEnd)
	printMetrics(out, "informational", r.Info)
	fmt.Fprintf(out, "  self-check: %d of %d expected deliveries correct, %d missing, %d duplicate, %d corrupt or misrouted, %d publish errors\n",
		r.Tally.Correct, r.Tally.Expected, r.Tally.Missing, r.Tally.Dups, r.Tally.Bad, r.Tally.PubErrors)
	if r.PerLayer != nil {
		printMetrics(out, "per layer", r.PerLayer)
		printAttribution(out, r.Attribution)
		fmt.Fprintf(out, "  trace written to %s\n", r.TraceFile)
	}
}
