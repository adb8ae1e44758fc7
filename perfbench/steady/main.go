// Command steady measures how steady the benchmark's figures are: it runs
// each workload BENCHMARK.json lists k times for BENCHMARK.json's
// run_seconds, one seed per round (seed-base, seed-base+1, ...),
// alternating the workload order between rounds, and prints each metric's
// median, quartiles, min and max, and the spread between the quartiles as a
// share of the median. Quartiles are computed as Python's
// statistics.quantiles(values, n=4) computes them. It reads BENCHMARK.json
// and runs `bash perfbench/run.sh`, so run it from the checkout root:
//
//	(cd perfbench && go build -o ../.bench_build/steady ./steady)
//	.bench_build/steady -k 10
//
// The last line is one JSON object in the benchmark's own result format,
// one entry per workload, each metric's value being its median.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type runResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// summary is one metric over k runs.
type summary struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Spread float64 `json:"spread"`
}

type workloadSummary struct {
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FailedShare []float64          `json:"failed_share"`
	Metrics     map[string]summary `json:"metrics"`
}

func main() {
	k := flag.Int("k", 10, "runs per workload")
	seedBase := flag.Int64("seed-base", 1, "seed of the first round")
	flag.Parse()
	names, seconds, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "steady: %v\n", err)
		os.Exit(1)
	}
	runs := make(map[string][]runResult)
	for r := 0; r < *k; r++ {
		order := append([]string(nil), names...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		seed := *seedBase + int64(r)
		for _, w := range order {
			t0 := time.Now()
			res, control, err := runOnce(w, seed, seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "steady: %s seed %d: %v\n", w, seed, err)
				os.Exit(1)
			}
			blob, _ := json.Marshal(res)
			fmt.Fprintf(os.Stderr, "steady: %s seed %d (%.0f s, machine.control_ms %s): %s\n",
				w, seed, time.Since(t0).Seconds(), strings.Join(control, " "), blob)
			runs[w] = append(runs[w], res)
		}
	}
	out := make(map[string]workloadSummary)
	for _, w := range names {
		ws := workloadSummary{Correct: true, Metrics: make(map[string]summary)}
		series := make(map[string][]float64)
		units := make(map[string]string)
		for _, r := range runs[w] {
			ws.Correct = ws.Correct && r.Correct
			ws.Attempted += r.Attempted
			ws.Failed += r.Failed
			ws.FailedShare = append(ws.FailedShare, float64(r.Failed)/float64(r.Attempted))
			for name, v := range r.Metrics {
				series[name] = append(series[name], v.Value)
				units[name] = v.Unit
			}
		}
		var keys []string
		for name := range series {
			keys = append(keys, name)
		}
		sort.Strings(keys)
		for _, name := range keys {
			s := summarize(series[name])
			s.Unit = units[name]
			ws.Metrics[name] = s
			fmt.Printf("%-15s %-30s %14.6g %-12s q1 %-12.6g q3 %-12.6g min %-12.6g max %-12.6g spread %5.1f%%\n",
				w, name, s.Value, s.Unit, s.Q1, s.Q3, s.Min, s.Max, 100*s.Spread)
		}
		fmt.Printf("%-15s correct %v attempted %d failed %d\n", w, ws.Correct, ws.Attempted, ws.Failed)
		out[w] = ws
	}
	blob, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "steady: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(blob))
}

// readManifest returns the workload names and the run length that
// BENCHMARK.json sets.
func readManifest(path string) ([]string, int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var m struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	if m.RunSeconds <= 0 || len(m.Workloads) == 0 {
		return nil, 0, fmt.Errorf("%s: no run_seconds or no workloads", path)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	return names, m.RunSeconds, nil
}

// runOnce runs the benchmark, untraced, and decodes its last output line.
// It also returns the machine control figures the run printed.
func runOnce(workload string, seed int64, seconds int) (runResult, []string, error) {
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return runResult{}, nil, err
	}
	var last string
	var control []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if f := strings.Fields(line); len(f) >= 3 && f[1] == "machine.control_ms" {
			control = append(control, f[2])
		}
		if line != "" {
			last = line
		}
	}
	var r runResult
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return runResult{}, nil, fmt.Errorf("decoding last line %q: %w", last, err)
	}
	return r, control, nil
}

// summarize computes the median, Python-style exclusive quartiles, the
// extremes, and the quartile spread as a share of the median.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := quartiles(s)
	out := summary{Value: q[1], Q1: q[0], Q3: q[2], Min: s[0], Max: s[len(s)-1]}
	if q[1] != 0 {
		out.Spread = math.Abs(q[2]-q[0]) / math.Abs(q[1])
	}
	return out
}

// quartiles mirrors statistics.quantiles(data, n=4) (method "exclusive")
// on sorted data; with a single value every quartile is that value.
func quartiles(s []float64) [3]float64 {
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var out [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out
}
