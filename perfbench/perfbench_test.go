package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"puffer/internal/serve"
)

// tiny runs a workload at an eighth of its sessions for one round.
func tiny(trace bool) options {
	return options{seed: 1, seconds: 1e-3, trace: trace, scale: 8}
}

// manifest is the part of BENCHMARK.json the test checks outputs against.
type manifest struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestWorkloads runs every workload at a tiny scale, untraced and traced,
// with its checks on, and holds its output to BENCHMARK.json: every listed
// metric is printed with its unit, and the run's checks pass.
func TestWorkloads(t *testing.T) {
	m := loadManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}
	for i := range workloads {
		w := &workloads[i]
		if m.Workloads[i].Name != w.name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, m.Workloads[i].Name, w.name)
		}
		for _, trace := range []bool{false, true} {
			want := m.EndToEnd
			if trace {
				want = m.PerLayer
			}
			name := w.name + "/untraced"
			if trace {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := measure(io.Discard, w, tiny(trace))
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if code := report(&out, io.Discard, res); code != 0 {
					t.Fatalf("report exited %d", code)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var got struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatal(err)
				}
				if !got.Correct || got.Attempted == 0 || got.Failed != 0 {
					t.Fatalf("correct %v attempted %d failed %d: %v", got.Correct, got.Attempted, got.Failed, res.problems)
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(got.Metrics), len(want))
				}
				for _, mm := range want {
					v, ok := got.Metrics[mm.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", mm.Name)
					case v.Unit != mm.Unit:
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", mm.Name, v.Unit, mm.Unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (!trace && v.Value <= 0):
						t.Errorf("metric %s = %v", mm.Name, v.Value)
					}
				}
			})
		}
	}
}

// TestChecksRejectWrongOutputs feeds every check an output that is wrong
// in one detail and expects the check to fail.
func TestChecksRejectWrongOutputs(t *testing.T) {
	o := tiny(false)
	expectFail := func(t *testing.T, what string, check func(*result)) {
		t.Helper()
		var r result
		check(&r)
		if len(r.problems) == 0 {
			t.Errorf("%s: check passed", what)
		}
	}
	expectPass := func(t *testing.T, check func(*result)) {
		t.Helper()
		var r result
		check(&r)
		if len(r.problems) != 0 {
			t.Fatalf("correct output rejected: %v", r.problems)
		}
	}

	t.Run("daily-loop", func(t *testing.T) {
		d, err := setupDaily(o, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(d.dir)
		if err := d.timeDaily(); err != nil {
			t.Fatal(err)
		}
		expectPass(t, func(r *result) { checkDaily(r, d) })

		d.res.Days[1].Schemes[0].Sessions++
		expectFail(t, "an arm one session over", func(r *result) { checkDaily(r, d) })
		d.res.Days[1].Schemes[0].Sessions--

		// A night model sure of one bin guesses worse than uniform.
		bad := d.res.TTP.Clone()
		for _, net := range bad.Nets {
			last := net.B[len(net.B)-1]
			last[len(last)-1] = 1e3
		}
		if err := bad.SaveFile(filepath.Join(d.dir, "day_000", "ttp.model")); err != nil {
			t.Fatal(err)
		}
		expectFail(t, "a night model worse than a uniform guess", func(r *result) { checkDaily(r, d) })
	})

	plans, err := warmDays(o, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := plans[0]
	day, _, err := virtualDay(p)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("fleet-trial", func(t *testing.T) {
		expectPass(t, func(r *result) { checkFleetDay(r, p, day) })
		wrong := func(edit func(d *fleetDay)) *fleetDay {
			c := &fleetDay{stats: append(day.stats[:0:0], day.stats...), decisions: day.decisions}
			edit(c)
			return c
		}
		expectFail(t, "an arm one session over", func(r *result) {
			checkFleetDay(r, p, wrong(func(d *fleetDay) { d.stats[0].Sessions++ }))
		})
		expectFail(t, "a stall ratio a millionth over", func(r *result) {
			checkFleetDay(r, p, wrong(func(d *fleetDay) { d.stats[0].StallRatio.Point += 1e-6 }))
		})
		expectFail(t, "an SSIM off by a millionth", func(r *result) {
			checkFleetDay(r, p, wrong(func(d *fleetDay) { d.stats[1].SSIM.Point *= 1 + 1e-6 }))
		})
	})

	t.Run("serve-loopback", func(t *testing.T) {
		addrs, stop, err := startServers([]*serve.Plan{p})
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		lr, err := serve.RunLoad(serve.LoadConfig{Addr: addrs[0], Plan: p, Concurrency: workers})
		if err != nil {
			t.Fatal(err)
		}
		expectPass(t, func(r *result) { checkServed(r, p, lr, day) })
		wrong := func(edit func(lr *serve.LoadResult)) *serve.LoadResult {
			c := *lr
			c.Stats = append(lr.Stats[:0:0], lr.Stats...)
			edit(&c)
			return &c
		}
		expectFail(t, "a changed served stats row", func(r *result) {
			checkServed(r, p, wrong(func(lr *serve.LoadResult) { lr.Stats[0].MeanBitrate++ }), day)
		})
		expectFail(t, "one decision more than the twin", func(r *result) {
			checkServed(r, p, wrong(func(lr *serve.LoadResult) { lr.Decisions++ }), day)
		})
		expectFail(t, "a failed session", func(r *result) {
			checkServed(r, p, wrong(func(lr *serve.LoadResult) { lr.Failed = 1 }), day)
		})
	})
}
