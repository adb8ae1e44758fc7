package main

import (
	"math"

	"puffer/internal/obs"
)

// setTracing sets the process-wide recording gate and tracer for the next
// timed repetition: metrics alone, or metrics and a tracer that samples
// every session. It returns the tracer (nil when tracing is off).
func setTracing(metrics, traced bool) *obs.Tracer {
	if !traced {
		obs.SetTracer(nil)
		obs.SetEnabled(metrics)
		return nil
	}
	tr := obs.NewTracer(1, 0)
	obs.SetTracer(tr)
	obs.SetEnabled(true)
	return tr
}

// overhead collects (untraced, traced) times of the same operation on the
// same input, timed back to back.
type overhead [][2]float64

// pair times one untraced and one traced repetition of the same operation
// and records the pair; it returns the seconds both spent. The side that
// runs first alternates from pair to pair, so a cold start or a drift
// within a pair lands on either side equally often.
func (o *overhead) pair(run func(traced bool) (float64, error)) (float64, error) {
	var t [2]float64
	tracedFirst := len(*o)%2 == 1
	for _, traced := range [2]bool{tracedFirst, !tracedFirst} {
		s, err := run(traced)
		if err != nil {
			return 0, err
		}
		if traced {
			t[1] = s
		} else {
			t[0] = s
		}
	}
	*o = append(*o, t)
	return t[0] + t[1], nil
}

// pct is the median over pairs of the traced time's excess, in percent.
func (o overhead) pct() float64 {
	r := make([]float64, len(o))
	for i, p := range o {
		r[i] = (p[1]/p[0] - 1) * 100
	}
	return median(r)
}

// runnerLayer reads the runner's own day, trial and retrain spans.
type runnerLayer struct {
	trial, retrain, day []float64
	examples            int64
	loops               int
}

// add folds one runner.Run's spans in. Only the first run's retraining
// example count is kept, so the count is the same on every run of a seed.
func (r *runnerLayer) add(tr *obs.Tracer) {
	var examples int64
	for _, s := range tr.Snapshot() {
		d := float64(s.Dur) / 1e9
		switch s.Name {
		case "trial":
			r.trial = append(r.trial, d)
		case "retrain":
			r.retrain = append(r.retrain, d)
			for _, a := range s.Attrs {
				if a.Key == "examples" {
					examples += a.Val
				}
			}
		case "day":
			r.day = append(r.day, d)
		}
	}
	if r.loops == 0 {
		r.examples = examples
	}
	r.loops++
}

// report adds the runner's per-day means: trial, nightly retraining, and
// the rest of the day (checkpoint and bookkeeping).
func (r *runnerLayer) report(res *result) {
	mean := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return sum(xs) / float64(len(xs))
	}
	res.add("runner.trial_s", "s", mean(r.trial))
	res.add("runner.retrain_s", "s", mean(r.retrain))
	res.add("runner.checkpoint_s", "s", (sum(r.day)-sum(r.trial)-sum(r.retrain))/math.Max(1, float64(len(r.day))))
	res.add("runner.retrain_examples", "count", float64(r.examples))
	if len(r.day) == 0 {
		res.checkf("runner: no day spans recorded with tracing on")
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// medianPerCall times fn n times and returns the median call in
// nanoseconds.
func medianPerCall(n int, fn func()) float64 {
	ts := make([]float64, n)
	for i := range ts {
		t0 := nowNS()
		fn()
		ts[i] = float64(nowNS() - t0)
	}
	return median(ts)
}
