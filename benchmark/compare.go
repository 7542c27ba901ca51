package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// contract is BENCHMARK.json: the workloads, metrics and regression
// bounds this benchmark is held to.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// readContract loads BENCHMARK.json from the repository root, found
// from the working directory the same way benchDir is.
func readContract() (*contract, error) {
	path := "BENCHMARK.json"
	if benchDir() == "." {
		path = filepath.Join("..", path)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// compareFiles prints one row per (workload, end-to-end metric) with
// the medians of both result files, how much worse b is than a, the
// bound from BENCHMARK.json and a verdict: ok, worse (b is worse than a
// by more than the bound) or unresolved (the runs of one file spread
// wider than the bound, so the files cannot be told apart). It reports
// whether every row is ok and no run of either file lost a delivery.
func compareFiles(out io.Writer, pathA, pathB string) (bool, error) {
	c, err := readContract()
	if err != nil {
		return false, err
	}
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "a: %s (commit %s, seed %d)\nb: %s (commit %s, seed %d)\n",
		pathA, a.Env.Commit, a.Env.Seed, pathB, b.Env.Commit, b.Env.Seed)
	fmt.Fprintf(out, "%-16s %-16s %14s %14s %9s %7s %8s %5s  %s\n",
		"workload", "metric", "median a", "median b", "b worse", "bound", "spread", "runs", "verdict")
	allOK := true
	for _, w := range c.Workloads {
		for _, m := range c.EndToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sp := max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case sp > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
			}
			allOK = allOK && verdict == "ok"
			fmt.Fprintf(out, "%-16s %-16s %14.6g %14.6g %+8.1f%% %6.0f%% %7.1f%% %2d/%-2d  %s\n",
				w.Name, m.Name, ma, mb, 100*worse, 100*m.Bound, 100*sp, len(va), len(vb), verdict)
		}
		for i, f := range []*resultFile{a, b} {
			for _, r := range f.Runs {
				if r.Workload == w.Name && (r.Tally.failed() > 0 || r.GenLate) {
					allOK = false
					fmt.Fprintf(out, "%-16s %-16s file %c: %d of %d deliveries failed the self-check (generator late: %v)  worse\n",
						w.Name, "loss_ratio", 'a'+rune(i), r.Tally.failed(), r.Tally.Expected, r.GenLate)
				}
			}
		}
	}
	return allOK, nil
}

// values lists one end-to-end metric of one workload over a file's runs.
func (f *resultFile) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range f.Runs {
		if m, ok := r.EndToEnd[metric]; ok && r.Workload == workload {
			v = append(v, m.Value)
		}
	}
	return v
}
