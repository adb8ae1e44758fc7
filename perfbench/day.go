package main

import (
	"math"
	"net"
	"reflect"
	"sync"
	"time"

	"puffer/internal/experiment"
	"puffer/internal/fleet"
	"puffer/internal/obs"
	"puffer/internal/runner"
	"puffer/internal/scenario"
	"puffer/internal/serve"
)

// One Fugu day at a time: fleet-trial runs it on the virtual-time fleet
// engine, serve-loopback serves it over 127.0.0.1. A run sets up `models`
// scenarios, one per seed derived from --seed; in each, Plan.Warm trains
// the model after day 0, and that model serves daysPerModel days (nightly
// retraining is off, as in the paper's frozen "Fugu-Feb" arm), so the
// timed part trains nothing. A round runs every day of every model, and a
// figure is the median over all of them, so it rests on several models and
// several days' heavy-tailed sessions rather than on one of each.
const (
	daySessions  = 150
	models       = 3
	daysPerModel = 2
	// arrivalRate (sessions per virtual second) keeps ~100 sessions live,
	// so fleet flushes batch rows from many sessions.
	arrivalRate = 2.0
	// workers bounds the fleet engine's and the runner's goroutines and
	// the load generator's connections: one per core of the reference box.
	workers = 2
)

// daySpec is the fleet-trial and serve-loopback scenario.
func daySpec(seed int64, sessions int) scenario.Spec {
	retrain := false
	return scenario.Spec{
		Name:   "perfbench-day",
		Daily:  scenario.DailySpec{Days: 1 + daysPerModel, Sessions: sessions, Retrain: &retrain},
		Engine: scenario.EngineSpec{Kind: "fleet", Arrival: scenario.ArrivalSpec{Rate: arrivalRate}},
		Seed:   &seed,
	}
}

// warmDays sets up model m: Plan.Warm trains the model that serves day 1,
// and the later days take the same model, as the frozen arm's loop would.
func warmDays(o options, m int) ([]*serve.Plan, error) {
	spec := daySpec(mix(o.seed, int64(m)), daySessions/o.scale)
	plans := make([]*serve.Plan, daysPerModel)
	for i := range plans {
		p, err := serve.NewPlan(spec, 1+i)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			if err := p.Warm(workers, nil); err != nil {
				return nil, err
			}
		} else {
			p.Slot = plans[0].Slot
			p.Schemes = runner.DeploySchemes(p.Slot, p.TrialSeed)
		}
		plans[i] = p
	}
	return plans, nil
}

// setupDays sets up every model, each followed by extra (serve-loopback
// starts its servers there), and returns every day's plan, a stop for what
// extra started, and the median setup time. In a traced run the runner's
// spans of the warmups feed rl.
func setupDays(o options, rl *runnerLayer, extra func([]*serve.Plan) (func(), error)) ([]*serve.Plan, func(), float64, error) {
	var (
		times []float64
		all   []*serve.Plan
		stops []func()
	)
	stop := func() {
		for _, s := range stops {
			s()
		}
	}
	for m := 0; m < models; m++ {
		tr := setTracing(o.trace, o.trace)
		t0 := time.Now()
		plans, err := warmDays(o, m)
		if err == nil && extra != nil {
			var s func()
			if s, err = extra(plans); s != nil {
				stops = append(stops, s)
			}
		}
		times = append(times, since(t0))
		setTracing(false, false)
		if err != nil {
			stop()
			return nil, nil, 0, err
		}
		if tr != nil {
			rl.add(tr)
		}
		all = append(all, plans...)
	}
	return all, stop, median(times), nil
}

// dayTimes collects one day workload's timed repetitions.
type dayTimes struct {
	dayS, sessPerS, decPerS []float64
	pairs                   overhead
}

func (d *dayTimes) add(wall float64, sessions int, decisions int64) {
	d.dayS = append(d.dayS, wall)
	d.sessPerS = append(d.sessPerS, float64(sessions)/wall)
	d.decPerS = append(d.decPerS, float64(decisions)/wall)
}

// rounds times every day in whole rounds; in a traced run each day runs
// once untraced and once traced, and the pair feeds the tracing overhead.
func (d *dayTimes) rounds(o options, days int, timeDay func(in int, traced bool) (float64, error)) error {
	return rounds(o.seconds, days, func(_, in int) (float64, error) {
		if !o.trace {
			return timeDay(in, false)
		}
		return d.pairs.pair(func(traced bool) (float64, error) { return timeDay(in, traced) })
	})
}

func (d *dayTimes) report(res *result) {
	res.add("day_s", "s/day", median(d.dayS))
	res.add("sessions_per_s", "sessions/s", median(d.sessPerS))
	res.add("decisions_per_s", "decisions/s", median(d.decPerS))
}

func runFleet(o options) (*result, error) {
	res := &result{}
	var rl runnerLayer
	plans, _, setupS, err := setupDays(o, &rl, nil)
	if err != nil {
		return nil, err
	}
	var dt dayTimes
	first := make([]*fleetDay, len(plans))
	timeDay := func(in int, traced bool) (float64, error) {
		setTracing(false, traced)
		t0 := time.Now()
		got, _, err := virtualDay(plans[in])
		wall := since(t0)
		setTracing(false, false)
		if err != nil {
			return 0, err
		}
		res.attempted += plans[in].Sessions
		if first[in] == nil {
			first[in] = got
			checkFleetDay(res, plans[in], got)
		} else if !reflect.DeepEqual(first[in], got) {
			res.checkf("fleet-trial: day %s gave different stats on a repeat run", plans[in].Hash)
		}
		if !traced {
			dt.add(wall, plans[in].Sessions, got.decisions)
		}
		return wall, nil
	}
	if err := dt.rounds(o, len(plans), timeDay); err != nil {
		return nil, err
	}
	if o.trace {
		rl.report(res)
		res.add("trace.overhead_pct", "%", dt.pairs.pct())
		return res, ladder(res, o, plans[0])
	}
	res.add("setup_s", "s", setupS)
	dt.report(res)
	res.add("max_rss_mb", "MiB", maxRSSMB())
	return res, nil
}

// fleetDay is what one fleet day returns that the checks compare.
type fleetDay struct {
	stats     []experiment.SchemeStats
	decisions int64
}

// virtualDay runs a warmed plan's day on the virtual-time fleet engine. It
// also returns the engine's batching statistics.
func virtualDay(p *serve.Plan) (*fleetDay, *fleet.Stats, error) {
	stats, fst, err := serve.RunVirtual(p, workers)
	if err != nil {
		return nil, nil, err
	}
	return &fleetDay{stats: stats, decisions: fst.Decisions}, fst, nil
}

// checkFleetDay compares a fleet day's per-arm session counts, stall ratio
// and SSIM with the benchmark's own figures from the session engine's
// SessionResults for the same trial: total stall over total watch time, and
// watch-weighted mean SSIM, over the streams the paper's analysis keeps.
func checkFleetDay(res *result, p *serve.Plan, got *fleetDay) {
	trial, err := p.Trial()
	if err != nil {
		res.checkf("fleet-trial: %v", err)
		return
	}
	want := sessionArms(trial)
	if len(got.stats) != len(want) {
		res.checkf("fleet-trial: day %s has %d arms, the session engine %d", p.Hash, len(got.stats), len(want))
	}
	for _, st := range got.stats {
		w, ok := want[st.Name]
		switch {
		case !ok:
			res.checkf("fleet-trial: day %s arm %q absent from the session engine's sessions", p.Hash, st.Name)
		case st.Sessions != w.sessions:
			res.checkf("fleet-trial: day %s arm %s has %d sessions, the session engine %d", p.Hash, st.Name, st.Sessions, w.sessions)
		case !near(st.StallRatio.Point, w.stall/w.watch):
			res.checkf("fleet-trial: day %s arm %s stall ratio %.9g, the session engine %.9g", p.Hash, st.Name, st.StallRatio.Point, w.stall/w.watch)
		case !near(st.SSIM.Point, w.ssimWatch/w.watch):
			res.checkf("fleet-trial: day %s arm %s SSIM %.9g dB, the session engine %.9g", p.Hash, st.Name, st.SSIM.Point, w.ssimWatch/w.watch)
		}
	}
}

// armSums are one arm's sums over the session engine's sessions.
type armSums struct {
	sessions                int
	stall, watch, ssimWatch float64
}

// sessionArms runs every session of the trial on the session engine
// (RunOne, two goroutines) and sums each arm's streams. A stream counts if
// it began playing, its decoder kept up, and it was watched at least 4 s.
func sessionArms(trial *experiment.Config) map[string]*armSums {
	results := make([]experiment.SessionResult, trial.Sessions)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for id := w; id < trial.Sessions; id += workers {
				results[id] = trial.RunOne(id)
			}
		}(w)
	}
	wg.Wait()
	arms := make(map[string]*armSums)
	for _, r := range results {
		a := arms[r.Scheme]
		if a == nil {
			a = &armSums{}
			arms[r.Scheme] = a
		}
		a.sessions++
		for _, s := range r.Streams {
			watch := s.PlayTime + s.StallTime
			if s.NeverPlayed || s.BadDecoder || watch < 4 {
				continue
			}
			a.stall += s.StallTime
			a.watch += watch
			a.ssimWatch += s.SSIMMean * watch
		}
	}
	return arms
}

// near reports whether two sums of the same terms agree up to rounding.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func runServe(o options) (*result, error) {
	res := &result{}
	var rl runnerLayer
	var addrs []string
	plans, stop, setupS, err := setupDays(o, &rl, func(plans []*serve.Plan) (func(), error) {
		a, stop, err := startServers(plans)
		addrs = append(addrs, a...)
		return stop, err
	})
	if err != nil {
		return nil, err
	}
	defer stop()
	var dt dayTimes
	var p50, p99 []float64
	rttH := obs.Default.Histogram("serve_client_rtt_ns")
	twins := make([]*fleetDay, len(plans))
	timeDay := func(in int, traced bool) (float64, error) {
		if twins[in] == nil {
			twin, _, err := virtualDay(plans[in])
			if err != nil {
				return 0, err
			}
			twins[in] = twin
		}
		setTracing(true, traced)
		before := rttH.Snapshot()
		t0 := time.Now()
		lr, err := serve.RunLoad(serve.LoadConfig{Addr: addrs[in], Plan: plans[in], Concurrency: workers})
		wall := since(t0)
		rtt := rttH.Snapshot().Sub(before)
		setTracing(false, false)
		if err != nil {
			return 0, err
		}
		res.attempted += lr.Sessions
		res.failed += lr.Failed
		checkServed(res, plans[in], lr, twins[in])
		if !traced {
			dt.add(wall, lr.Sessions, lr.Decisions)
			p50 = append(p50, float64(rtt.Quantile(0.5))/1e3)
			p99 = append(p99, float64(rtt.Quantile(0.99))/1e3)
		}
		return wall, nil
	}
	if err := dt.rounds(o, len(plans), timeDay); err != nil {
		return nil, err
	}
	if o.trace {
		rl.report(res)
		res.add("trace.overhead_pct", "%", dt.pairs.pct())
		return res, ladder(res, o, plans[0])
	}
	res.add("setup_s", "s", setupS)
	dt.report(res)
	res.notef("decision_rtt_p50_us %.3f us (median day; not gated, see README)", median(p50))
	res.notef("decision_rtt_p99_us %.3f us (median day; not gated, see README)", median(p99))
	res.add("max_rss_mb", "MiB", maxRSSMB())
	return res, nil
}

// checkServed compares a served day with its virtual-time twin: the same
// per-arm stats, byte for byte, and the same decision count, with no failed
// session and no session served by two models.
func checkServed(res *result, p *serve.Plan, lr *serve.LoadResult, twin *fleetDay) {
	if lr.Failed != 0 || lr.ModelViolations != 0 {
		res.checkf("serve: day %s: %d sessions failed, %d saw two models", p.Hash, lr.Failed, lr.ModelViolations)
	}
	if lr.Decisions != twin.decisions {
		res.checkf("serve: day %s served %d decisions, the virtual twin %d", p.Hash, lr.Decisions, twin.decisions)
	}
	if !reflect.DeepEqual(lr.Stats, twin.stats) {
		res.checkf("serve: day %s stats differ from the virtual twin's", p.Hash)
	}
}

// startServers serves each plan on its own 127.0.0.1 port. The returned
// stop drains every server and waits for its accept loop to end.
func startServers(plans []*serve.Plan) ([]string, func(), error) {
	var (
		addrs []string
		srvs  []*serve.Server
		lns   []net.Listener
		wg    sync.WaitGroup
	)
	// Shutdown closes the listener only once Serve has stored it, so stop
	// closes each listener itself as well: a server stopped before its
	// Serve goroutine ran would otherwise block in Accept for good.
	stop := func() {
		for i, s := range srvs {
			s.Shutdown()
			lns[i].Close()
		}
		wg.Wait()
	}
	for _, p := range plans {
		srv, err := serve.NewServer(serve.Config{Plan: p})
		if err != nil {
			stop()
			return nil, nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Shutdown()
			stop()
			return nil, nil, err
		}
		srvs, lns = append(srvs, srv), append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A failed accept loop shows as failed sessions in RunLoad.
			_ = srv.Serve(ln)
		}()
	}
	return addrs, stop, nil
}
