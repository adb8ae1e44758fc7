// Command perfbench is the repository's benchmark: it times the daily loop a
// user runs, one fleet-engine day and one day served over loopback, each
// through the program's own public functions, and checks every output it
// times against a property the method must have or a separate computation.
//
//	perfbench --workload daily-loop|fleet-trial|serve-loopback \
//	    --seed N --seconds S --trace 0|1
//
// It prints an environment header, one line per metric, and as its last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, measured with tracing off;
// with --trace 1 they are the per-layer ones, measured with metrics and
// tracing on, plus the tracing overhead. README.md maps each per-layer
// metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// options are one invocation's arguments.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// scale divides the per-day session counts; 1 is the benchmark, the
	// package test uses a larger divisor to run every workload in seconds.
	scale int
}

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is one workload run: what the JSON line reports.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	// problems lists every failed output check (correct is false iff it is
	// non-empty).
	problems []string
	// notes are figures printed as comment lines only.
	notes []string
}

func (r *result) add(name, unit string, value float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value})
}

// notef records a figure that is printed but not reported in the JSON.
func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// checkf records a failed output check.
func (r *result) checkf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workload is one benchmark workload.
type workload struct {
	name string
	run  func(o options) (*result, error)
}

var workloads = []workload{
	{"daily-loop", runDaily},
	{"fleet-trial", runFleet},
	{"serve-loopback", runServe},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: daily-loop, fleet-trial or serve-loopback")
	seed := fs.Int64("seed", 1, "seed every input of the run is derived from")
	seconds := fs.Float64("seconds", 20, "how long the timed part runs, in seconds (whole rounds, at least one)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics with tracing on")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace %d, want 0 or 1\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds %g, must be positive\n", *seconds)
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q (want daily-loop, fleet-trial or serve-loopback)\n", *name)
		return 2
	}

	writeHeader(stdout, w.name, *seed, *seconds, *trace)
	res, err := measure(stdout, w, options{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return report(stdout, stderr, res)
}

// measure runs one workload between two timings of the machine control,
// which a traced run also reports.
func measure(stdout io.Writer, w *workload, o options) (*result, error) {
	control := controlMS()
	fmt.Fprintf(stdout, "# machine.control_ms %.4f (before the run)\n", control)
	res, err := w.run(o)
	if err != nil {
		return nil, err
	}
	after := controlMS()
	fmt.Fprintf(stdout, "# machine.control_ms %.4f (after the run)\n", after)
	if o.trace {
		res.add("machine.control_ms", "ms", (control+after)/2)
	}
	return res, nil
}

// report prints the metric lines and the final JSON line.
func report(stdout, stderr io.Writer, res *result) int {
	res.correct = len(res.problems) == 0
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	sort.SliceStable(res.metrics, func(i, j int) bool { return res.metrics[i].name < res.metrics[j].name })
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, make(map[string]value)}
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "%-32s %16.6f %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	for _, n := range res.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	fmt.Fprintf(stdout, "# attempted %d failed %d correct %v\n", res.attempted, res.failed, res.correct)
	blob, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(blob))
	return 0
}

// rounds runs op for whole rounds until the timed budget is spent (always
// at least one round). A round is one call per input index 0..inputs-1, so
// every run attempts whole rounds of the same operations; op returns the
// seconds it spent.
func rounds(seconds float64, inputs int, op func(rep, input int) (float64, error)) error {
	spent := 0.0
	for rep := 0; rep == 0 || spent < seconds; {
		for in := 0; in < inputs; in++ {
			t, err := op(rep, in)
			if err != nil {
				return err
			}
			spent += t
			rep++
		}
	}
	return nil
}

// since returns the seconds elapsed since t0.
func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }
