package main

import (
	"fmt"
	"math"

	"puffer/internal/abr"
	"puffer/internal/core"
	"puffer/internal/experiment"
	"puffer/internal/nn"
	"puffer/internal/obs"
	"puffer/internal/serve"
)

// ladder measures every layer once, with metrics and tracing on, on the
// workload's own day: the plan's trial served by the plan's model. The
// benchmark times its calls into each layer's public functions, and reads
// the program's own histograms and counters where the program records a
// value at that boundary. Layers the workload's timed part does not run
// (serving, for the daily loop) are measured on the same day, so every
// traced run reports every layer.
func ladder(res *result, o options, plan *serve.Plan) error {
	setTracing(true, true)
	defer setTracing(false, false)
	model := plan.Slot.Load()
	trial, err := plan.Trial()
	if err != nil {
		return err
	}

	// abr and experiment: one goroutine replays the day with RunOne,
	// timing every Choose through wrapped scheme factories. A second
	// replay runs the same session ids with MPC-HM as the only arm, so
	// the classical planner is timed on the same paths without changing
	// the day the other figures come from.
	rp := replay(trial, trial.Schemes, plan.ShardSize)
	mpc := replay(trial, []experiment.Scheme{{Name: "MPC-HM", New: func() abr.Algorithm { return abr.NewMPCHM() }}}, plan.ShardSize)
	res.add("abr.fugu_choose_us", "us", rp.chooseUS("Fugu"))
	res.add("abr.mpc_hm_choose_us", "us", mpc.chooseUS("MPC-HM"))
	res.add("abr.decisions", "count", float64(rp.decisions()))
	res.add("experiment.session_ms", "ms", float64(rp.sessionNS)/float64(trial.Sessions)/1e6)
	res.add("experiment.sim_us_per_chunk", "us", float64(rp.sessionNS-rp.chooseNS())/float64(rp.chunks)/1e3)
	res.add("experiment.analyze_ms", "ms", medianPerCall(9, func() { rp.acc.Analyze(plan.AnalysisSeed) })/1e6)
	for name, n := range rp.armSessions() {
		if n != rp.sessions[name] {
			res.checkf("replay: arm %s folded %d sessions, ran %d", name, n, rp.sessions[name])
		}
	}

	// core: a one-epoch warm start on the day's telemetry, and batched
	// prediction at one row per ladder rung.
	var trainErr error
	res.add("core.train_epoch_s", "s", medianPerCall(3, func() {
		_, trainErr = core.Train(model.Clone(), rp.data, core.TrainConfig{Epochs: 1, BatchSize: 64, LR: 1e-3, Seed: o.seed})
	})/1e9)
	if trainErr != nil {
		return fmt.Errorf("core.Train: %w", trainErr)
	}
	xs, labels, weights := rp.data.Examples(model, 0, core.TrainConfig{})
	if len(xs) < 64 {
		return fmt.Errorf("replay collected %d step-0 examples, want at least 64", len(xs))
	}
	dim := len(xs[0])
	const rungs = 10
	rows := len(xs) / rungs * rungs
	flat := make([]float64, 0, rows*dim)
	for _, x := range xs[:rows] {
		flat = append(flat, x...)
	}
	pred := core.NewPredictor(model, core.ModeProbabilistic)
	dists := make([]float64, rungs*abr.NumBins)
	perRow := make([]float64, 5)
	for i := range perRow {
		t0 := nowNS()
		for at := 0; at < rows; at += rungs {
			pred.PredictFeaturesBatch(0, flat[at*dim:(at+rungs)*dim], rungs, dists)
		}
		perRow[i] = float64(nowNS()-t0) / float64(rows)
	}
	res.add("core.predict_ns_per_row", "ns", median(perRow))

	// nn: one 64-example training step, one Adam update.
	trainer := nn.NewTrainer(model.Nets[0].Clone(), &nn.Adam{LR: 1e-3})
	batch := 0
	res.add("nn.train_batch_us", "us", medianPerCall(200, func() {
		at := batch * 64 % (len(xs) - 63)
		trainer.TrainClassBatch(xs[at:at+64], labels[at:at+64], weights[at:at+64])
		batch++
	})/1e3)
	net := model.Nets[0].Clone()
	gW, gB := make([][]float64, len(net.W)), make([][]float64, len(net.B))
	for l := range net.W {
		gW[l] = make([]float64, len(net.W[l]))
		gB[l] = make([]float64, len(net.B[l]))
		for i := range gW[l] {
			gW[l][i] = 1e-3 * math.Sin(float64(i))
		}
	}
	adam := &nn.Adam{LR: 1e-3}
	res.add("nn.adam_step_us", "us", medianPerCall(500, func() { adam.Step(net, gW, gB) })/1e3)

	// fleet: the day on the virtual-time fleet engine.
	decH, flushH := obs.Default.Histogram("fleet_decision_ns"), obs.Default.Histogram("fleet_flush_ns")
	empty := obs.Default.Counter("fleet_flushes_empty_total")
	d0, f0, e0 := decH.Snapshot(), flushH.Snapshot(), empty.Value()
	twin, fst, err := virtualDay(plan)
	if err != nil {
		return err
	}
	res.add("fleet.flushes", "count", float64(fst.Flushes))
	res.add("fleet.empty_flushes", "count", float64(empty.Value()-e0))
	res.add("fleet.mean_batch_rows", "rows", fst.MeanBatchRows)
	res.add("fleet.decision_us", "us", decH.Snapshot().Sub(d0).Mean()/1e3)
	res.add("fleet.flush_us", "us", flushH.Snapshot().Sub(f0).Mean()/1e3)
	if rp.decisions() != fst.Decisions {
		res.checkf("replay: %d decisions, the fleet engine %d on the same day", rp.decisions(), fst.Decisions)
	}

	// nn: the packed serving kernel at the fleet's mean flush size.
	n := int(math.Max(1, math.Round(fst.MeanBatchRows)))
	if n > rows {
		n = rows
	}
	packed := model.Nets[0].NewPacked()
	ws := packed.NewBatchWorkspace(n)
	out := make([]float64, n*packed.OutputSize())
	res.add("nn.packed_forward_ns_per_row", "ns", medianPerCall(1000, func() {
		packed.PredictDistBatch(ws, flat[:n*dim], n, out)
	})/float64(n))

	// serve: the day served over 127.0.0.1 on two connections.
	addrs, stop, err := startServers([]*serve.Plan{plan})
	if err != nil {
		return err
	}
	defer stop()
	reqH, srvDecH := obs.Default.Histogram(serve.MetricRequestNS), obs.Default.Histogram(serve.MetricDecisionNS)
	batchH := obs.Default.Histogram(serve.MetricBatchSessions)
	rttH := obs.Default.Histogram("serve_client_rtt_ns")
	r0, s0, b0, t0 := reqH.Snapshot(), srvDecH.Snapshot(), batchH.Snapshot(), rttH.Snapshot()
	lr, err := serve.RunLoad(serve.LoadConfig{Addr: addrs[0], Plan: plan, Concurrency: workers})
	if err != nil {
		return err
	}
	res.attempted += lr.Sessions
	res.failed += lr.Failed
	checkServed(res, plan, lr, twin)
	res.add("serve.request_us", "us", reqH.Snapshot().Sub(r0).Mean()/1e3)
	res.add("serve.decision_us", "us", srvDecH.Snapshot().Sub(s0).Mean()/1e3)
	res.add("serve.batch_sessions_mean", "sessions", batchH.Snapshot().Sub(b0).Mean())
	rtt := rttH.Snapshot().Sub(t0)
	res.add("serve.rtt_p50_us", "us", float64(rtt.Quantile(0.5))/1e3)
	res.add("serve.rtt_p99_us", "us", float64(rtt.Quantile(0.99))/1e3)
	return nil
}

// replayed is one single-goroutine replay of a day.
type replayed struct {
	choose    map[string]*[2]int64 // per arm: Choose ns, Choose calls
	sessions  map[string]int
	sessionNS int64
	chunks    int
	data      *core.Dataset
	acc       *experiment.TrialAcc
}

// timedAlg times every Choose of the algorithm it wraps.
type timedAlg struct {
	abr.Algorithm
	t *[2]int64
}

func (a timedAlg) Choose(o *abr.Observation) int {
	t0 := nowNS()
	q := a.Algorithm.Choose(o)
	a.t[0] += nowNS() - t0
	a.t[1]++
	return q
}

// replay runs every session of the trial in id order on one goroutine,
// with the given arms, each wrapped to time its decisions, and collects the
// day's telemetry.
func replay(trial *experiment.Config, arms []experiment.Scheme, shardSize int) *replayed {
	rp := &replayed{choose: make(map[string]*[2]int64), sessions: make(map[string]int)}
	t := *trial
	t.Schemes = nil
	for _, s := range arms {
		s, c := s, new([2]int64)
		rp.choose[s.Name] = c
		t.Schemes = append(t.Schemes, experiment.Scheme{Name: s.Name,
			New: func() abr.Algorithm { return timedAlg{s.New(), c} }})
	}
	col := experiment.NewDatasetCollector()
	t.Recorder = col
	results := make([]experiment.SessionResult, t.Sessions)
	for id := range results {
		t0 := nowNS()
		results[id] = t.RunOne(id)
		rp.sessionNS += nowNS() - t0
		rp.sessions[results[id].Scheme]++
	}
	rp.data = col.Dataset()
	rp.chunks = rp.data.NumChunks()
	rp.acc = experiment.FoldShards(t.Sessions, shardSize, experiment.AllPaths,
		func(id int) *experiment.SessionResult { return &results[id] })
	return rp
}

func (rp *replayed) chooseUS(arm string) float64 {
	c := rp.choose[arm]
	if c == nil || c[1] == 0 {
		return 0
	}
	return float64(c[0]) / float64(c[1]) / 1e3
}

func (rp *replayed) chooseNS() int64 {
	var ns int64
	for _, c := range rp.choose {
		ns += c[0]
	}
	return ns
}

func (rp *replayed) decisions() int64 {
	var n int64
	for _, c := range rp.choose {
		n += c[1]
	}
	return n
}

// armSessions is the folded accumulator's per-arm session count.
func (rp *replayed) armSessions() map[string]int {
	out := make(map[string]int)
	for name, a := range rp.acc.Schemes {
		out[name] = a.Sessions
	}
	return out
}
