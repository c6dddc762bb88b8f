package main

import (
	"fmt"
	"time"

	"hierdrl"
	"hierdrl/internal/local"
	"hierdrl/internal/lstm"
)

// tracedDPM names the power manager the traced run registers: the built-in
// RL timeout policy with its LSTM predictor, built exactly as the built-in
// "rl" entry builds them (same constructors, same RNG split order), with
// every call timed.
const tracedDPM hierdrl.DPMKind = "perfbench-timed-rl"

// activeProbe receives the accumulators of the servers the traced DPM
// factory builds. The registry's factory signature carries no per-session
// context, so the traced pass installs its probe here before NewSession and
// removes it after; untraced passes never select tracedDPM.
var activeProbe *probe

func init() {
	hierdrl.RegisterPowerManager(tracedDPM, func(cfg *hierdrl.Config, _ int, rng *hierdrl.RNG) (hierdrl.PowerManager, error) {
		if cfg.Predictor != hierdrl.PredictorLSTM {
			return nil, fmt.Errorf("%s rebuilds the LSTM predictor only, got %q", tracedDPM, cfg.Predictor)
		}
		t0 := time.Now()
		acc := &serverAcc{}
		pred := &timedPredictor{p: lstm.NewPredictor(cfg.LSTMPredictor, rng.Split()), acc: acc}
		pm, err := local.NewRLTimeout(cfg.LocalRL, pred, rng.Split())
		if err != nil {
			return nil, err
		}
		if pr := activeProbe; pr != nil {
			pr.servers = append(pr.servers, acc)
			pr.buildNs += int64(time.Since(t0))
		}
		return &timedPM{pm: pm, acc: acc}, nil
	})
}

// probe collects the local-tier accumulators of one traced session.
type probe struct {
	servers []*serverAcc
	buildNs int64
}

// serverAcc accumulates one server's local-tier calls. A server's power
// manager runs only on its own event lane, so each accumulator has a single
// writer even when shard workers run concurrently; the coordinator reads them
// after the pass.
type serverAcc struct {
	idleCalls, arrivalCalls, observeCalls    int64
	idleSelfNs, arrivalSelfNs, observeSelfNs int64
	arrivalNs                                int64 // OnArrival including the predictor calls it makes
	predObserveCalls, predPredictCalls       int64
	predObserveNs, predPredictNs             int64
}

func (a *serverAcc) predNs() int64 { return a.predObserveNs + a.predPredictNs }

// timedPM times every call into one server's power manager. Self time
// excludes the predictor calls made inside it.
type timedPM struct {
	pm  hierdrl.PowerManager
	acc *serverAcc
}

func (t *timedPM) OnIdle(now hierdrl.Time, s *hierdrl.Server) float64 {
	a := t.acc
	p0, t0 := a.predNs(), time.Now()
	v := t.pm.OnIdle(now, s)
	a.idleSelfNs += int64(time.Since(t0)) - (a.predNs() - p0)
	a.idleCalls++
	return v
}

func (t *timedPM) OnArrival(now hierdrl.Time, s *hierdrl.Server, before hierdrl.PowerState) {
	a := t.acc
	p0, t0 := a.predNs(), time.Now()
	t.pm.OnArrival(now, s, before)
	d := int64(time.Since(t0))
	a.arrivalNs += d
	a.arrivalSelfNs += d - (a.predNs() - p0)
	a.arrivalCalls++
}

func (t *timedPM) Observe(now hierdrl.Time, powerW float64, jobsInSystem int) {
	a := t.acc
	p0, t0 := a.predNs(), time.Now()
	t.pm.Observe(now, powerW, jobsInSystem)
	a.observeSelfNs += int64(time.Since(t0)) - (a.predNs() - p0)
	a.observeCalls++
}

// timedPredictor times every call into one server's LSTM predictor.
type timedPredictor struct {
	p   hierdrl.Predictor
	acc *serverAcc
}

func (t *timedPredictor) ObserveArrival(at float64) {
	t0 := time.Now()
	t.p.ObserveArrival(at)
	t.acc.predObserveNs += int64(time.Since(t0))
	t.acc.predObserveCalls++
}

func (t *timedPredictor) Predict() float64 {
	t0 := time.Now()
	v := t.p.Predict()
	t.acc.predPredictNs += int64(time.Since(t0))
	t.acc.predPredictCalls++
	return v
}

// addTo sums the accumulators into the local.* and lstm.* metrics and
// returns the time spent in OnArrival, predictor calls included.
func (pr *probe) addTo(m map[string]float64) (arrivalNs int64) {
	var sum serverAcc
	for _, a := range pr.servers {
		sum.idleCalls += a.idleCalls
		sum.arrivalCalls += a.arrivalCalls
		sum.observeCalls += a.observeCalls
		sum.idleSelfNs += a.idleSelfNs
		sum.arrivalSelfNs += a.arrivalSelfNs
		sum.observeSelfNs += a.observeSelfNs
		sum.arrivalNs += a.arrivalNs
		sum.predObserveCalls += a.predObserveCalls
		sum.predPredictCalls += a.predPredictCalls
		sum.predObserveNs += a.predObserveNs
		sum.predPredictNs += a.predPredictNs
	}
	m["local.build_s"] = secs(pr.buildNs)
	m["local.on_idle_calls"] = float64(sum.idleCalls)
	m["local.on_idle_self_s"] = secs(sum.idleSelfNs)
	m["local.on_arrival_calls"] = float64(sum.arrivalCalls)
	m["local.on_arrival_self_s"] = secs(sum.arrivalSelfNs)
	m["local.observe_calls"] = float64(sum.observeCalls)
	m["local.observe_self_s"] = secs(sum.observeSelfNs)
	m["lstm.observe_calls"] = float64(sum.predObserveCalls)
	m["lstm.observe_s"] = secs(sum.predObserveNs)
	m["lstm.predict_calls"] = float64(sum.predPredictCalls)
	m["lstm.predict_s"] = secs(sum.predPredictNs)
	return sum.arrivalNs
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }
