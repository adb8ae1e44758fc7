package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"puffer/internal/core"
	"puffer/internal/runner"
	"puffer/internal/scenario"
	"puffer/internal/serve"
)

// The daily loop a user runs: nightly retraining over a two-day window, so
// the window is full from day 1 on, with per-day checkpoints. Retraining
// takes most of its time. Set-up runs day 0 — the bootstrap trial and the
// cold training of the first model — and checkpoints it; the timed part
// resumes from that checkpoint and runs the days after it.
const (
	dailyDays     = 3
	dailySessions = 48
	dailyWindow   = 2
)

// dailySpec is the daily-loop scenario for one input seed.
func dailySpec(seed int64, sessions int) scenario.Spec {
	window, retrain, ablation := dailyWindow, true, false
	return scenario.Spec{
		Name: "perfbench-daily-loop",
		Daily: scenario.DailySpec{Days: dailyDays, Sessions: sessions,
			Window: &window, Retrain: &retrain, Ablation: &ablation},
		Engine: scenario.EngineSpec{Kind: "session"},
		Seed:   &seed,
	}
}

// dailyRun is one timed run of the loop, kept until its checks have run.
type dailyRun struct {
	spec scenario.Spec
	cfg  runner.Config
	dir  string
	res  *runner.Result
	wall float64
}

// setupDaily compiles repetition rep's scenario, makes its checkpoint
// directory and runs day 0 into it.
func setupDaily(o options, rep int) (*dailyRun, error) {
	spec := dailySpec(mix(o.seed, int64(rep)), dailySessions/o.scale)
	cfg, err := scenario.Compile(spec)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "perfbench-daily-")
	if err != nil {
		return nil, err
	}
	cfg.Workers = workers
	cfg.CheckpointDir = dir
	day0 := cfg
	day0.Days = 1
	if _, err := runner.Run(day0); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &dailyRun{spec: spec, cfg: cfg, dir: dir}, nil
}

// timeDaily resumes the loop after day 0 and runs it to its end, timed.
func (d *dailyRun) timeDaily() error {
	t0 := time.Now()
	res, err := runner.Run(d.cfg)
	d.wall = since(t0)
	d.res = res
	return err
}

// timedDays is how many days the timed part ran.
func (d *dailyRun) timedDays() int { return len(d.res.Days) - 1 }

// decisions is the ABR decision count of the timed days: one per chunk
// sent.
func (d *dailyRun) decisions() int {
	n := 0
	for _, ds := range d.res.Days[1:] {
		n += ds.Chunks
	}
	return n
}

func runDaily(o options) (*result, error) {
	res := &result{}
	var setupS, dayS, sessPerS, decPerS []float64
	var pairs overhead
	var rl runnerLayer
	loop := func(rep int, traced bool) (*dailyRun, error) {
		t0 := time.Now()
		d, err := setupDaily(o, rep)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, since(t0))
		defer os.RemoveAll(d.dir)
		tr := setTracing(false, traced)
		err = d.timeDaily()
		setTracing(false, false)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			rl.add(tr)
		}
		checkDaily(res, d)
		res.attempted += d.cfg.SessionsPerDay * d.timedDays()
		return d, nil
	}
	var last *dailyRun
	err := rounds(o.seconds, 1, func(rep, _ int) (float64, error) {
		if o.trace {
			return pairs.pair(func(traced bool) (float64, error) {
				d, err := loop(rep, traced)
				if err != nil {
					return 0, err
				}
				last = d
				return d.wall, nil
			})
		}
		d, err := loop(rep, false)
		if err != nil {
			return 0, err
		}
		sessions := d.cfg.SessionsPerDay * d.timedDays()
		dayS = append(dayS, d.wall/float64(d.timedDays()))
		sessPerS = append(sessPerS, float64(sessions)/d.wall)
		decPerS = append(decPerS, float64(d.decisions())/d.wall)
		return d.wall, nil
	})
	if err != nil {
		return nil, err
	}
	if o.trace {
		plan, err := last.nextDayPlan()
		if err != nil {
			return nil, err
		}
		rl.report(res)
		res.add("trace.overhead_pct", "%", pairs.pct())
		return res, ladder(res, o, plan)
	}
	res.add("setup_s", "s", median(setupS))
	res.add("day_s", "s/day", median(dayS))
	res.add("sessions_per_s", "sessions/s", median(sessPerS))
	res.add("decisions_per_s", "decisions/s", median(decPerS))
	res.add("max_rss_mb", "MiB", maxRSSMB())
	return res, nil
}

// nextDayPlan is the day after the loop as a servable plan: its trial,
// served by the model the loop's last night trained. Plan.Warm would rerun
// this very loop to get the same model, so the plan takes it directly.
func (d *dailyRun) nextDayPlan() (*serve.Plan, error) {
	spec := d.spec.Clone()
	spec.Daily.Days++
	p, err := serve.NewPlan(spec, d.cfg.Days)
	if err != nil {
		return nil, err
	}
	p.Slot = &runner.ModelSlot{}
	p.Slot.Store(d.res.TTP)
	p.Schemes = runner.DeploySchemes(p.Slot, p.TrialSeed)
	return p, nil
}

// checkDaily checks one loop's outputs against properties the method must
// have: every day randomizes exactly the day's sessions across its arms, and
// every night's model predicts the next day's transmission times better than
// a uniform guess over its bins, by the benchmark's own log-loss.
func checkDaily(res *result, d *dailyRun) {
	r := d.res
	if len(r.Days) != d.cfg.Days {
		res.checkf("daily-loop: %d days recorded, want %d", len(r.Days), d.cfg.Days)
		return
	}
	for _, ds := range r.Days {
		n := 0
		for _, s := range ds.Schemes {
			n += s.Sessions
		}
		if n != d.cfg.SessionsPerDay {
			res.checkf("daily-loop: day %d arms hold %d sessions, want %d", ds.Day, n, d.cfg.SessionsPerDay)
		}
		if !ds.Retrained {
			res.checkf("daily-loop: day %d did not retrain", ds.Day)
		}
	}
	for night := 0; night+1 < len(r.Days); night++ {
		model, err := core.LoadFile(filepath.Join(d.dir, fmt.Sprintf("day_%03d", night), "ttp.model"))
		if err != nil {
			res.checkf("daily-loop: loading night %d model: %v", night, err)
			continue
		}
		next, err := core.LoadDatasetFile(filepath.Join(d.dir, fmt.Sprintf("day_%03d", night+1), "telemetry.gob"))
		if err != nil {
			res.checkf("daily-loop: loading day %d telemetry: %v", night+1, err)
			continue
		}
		loss, bins, n := logLoss(model, next)
		if n == 0 || !(loss < math.Log(float64(bins))) {
			res.checkf("daily-loop: night %d model log-loss %.4f nats on day %d (%d examples), want below ln %d = %.4f",
				night, loss, night+1, n, bins, math.Log(float64(bins)))
		}
	}
}

// logLoss is the model's mean cross-entropy, over every horizon step, on the
// observed transmission-time bins of a dataset it did not train on. It also
// returns the bin count and the number of examples scored.
func logLoss(t *core.TTP, data *core.Dataset) (loss float64, bins, n int) {
	pred := core.NewPredictor(t, core.ModeProbabilistic)
	total := 0.0
	for step := 0; step < t.Horizon(); step++ {
		xs, labels, _ := data.Examples(t, step, core.TrainConfig{})
		if len(xs) == 0 {
			continue
		}
		bins = t.Nets[step].OutputSize()
		flat := make([]float64, 0, len(xs)*len(xs[0]))
		for _, x := range xs {
			flat = append(flat, x...)
		}
		dists := make([]float64, len(xs)*bins)
		pred.PredictFeaturesBatch(step, flat, len(xs), dists)
		for i, l := range labels {
			total -= math.Log(math.Max(dists[i*bins+l], 1e-300))
		}
		n += len(labels)
	}
	if n == 0 {
		return 0, bins, 0
	}
	return total / float64(n), bins, n
}
