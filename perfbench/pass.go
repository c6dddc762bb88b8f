package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"slices"
	"time"

	"hierdrl"
)

// simStats are a pass's simulated results. They are exact at a fixed seed:
// any change in them is a change in the program's behaviour.
type simStats struct {
	EnergyKWh float64 `json:"energy_kwh"`
	LatAvgSec float64 `json:"latency_avg_s"`
	LatP99Sec float64 `json:"latency_p99_s"`
}

// passResult is what one pass measured.
type passResult struct {
	sim       simStats
	setupNs   int64 // NewSession
	passNs    int64 // SubmitTrace + StepUntil/Step + Drain + Result
	submitted int64
	completed int64
	lost      int64
	scrapes   []float64 // /metrics scrape latencies, µs
}

func since(t time.Time) int64 { return int64(time.Since(t)) }

// runPass drives one untraced pass of w over jobs: NewSession, then the
// chunks through SubmitTrace (and StepUntil for streamed workloads), Drain
// and Result. On error the returned result still counts what was submitted.
func runPass(w *workload, cfg hierdrl.Config, jobs []hierdrl.Job) (pr *passResult, err error) {
	pr = &passResult{submitted: int64(len(jobs))}
	t0 := time.Now()
	s, err := hierdrl.NewSession(cfg, w.sessionOptions()...)
	pr.setupNs = since(t0)
	if err != nil {
		return pr, fmt.Errorf("NewSession: %w", err)
	}
	defer s.Close()
	if w.scrape {
		sc := startScraper(s.TelemetryAddr())
		defer func() { _, err = sc.stop(err) }()
	}
	t1 := time.Now()
	for _, c := range w.chunks(jobs) {
		if err = s.SubmitTrace(&hierdrl.Trace{Jobs: c}); err != nil {
			return pr, fmt.Errorf("SubmitTrace: %w", err)
		}
		if w.stream {
			if err = s.StepUntil(hierdrl.Time(c[len(c)-1].Arrival)); err != nil {
				return pr, fmt.Errorf("StepUntil: %w", err)
			}
		}
	}
	if err = s.Drain(); err != nil {
		return pr, fmt.Errorf("Drain: %w", err)
	}
	res, err := s.Result()
	pr.passNs = since(t1)
	pr.completed = s.Completed()
	if err != nil {
		return pr, fmt.Errorf("Result: %w", err)
	}
	pr.finish(res)
	return pr, nil
}

func (pr *passResult) finish(res *hierdrl.Result) {
	pr.lost = res.Summary.JobsLost
	pr.sim = simStats{
		EnergyKWh: res.Summary.EnergykWh,
		LatAvgSec: res.Summary.AvgLatencySec,
		LatP99Sec: res.Summary.P99LatencySec,
	}
}

// Step classes of the traced pass.
const (
	stepDispatch = iota // the step dispatched at least one pending arrival
	stepComplete        // no dispatch, at least one job completed
	stepOther           // neither: power-mode timers, faults, drain phases
	numStepKinds
)

// classify names what one Session.Step did from the change it made to
// Pending() and Completed(). A parallel-tier step is a whole decision epoch:
// it runs the lanes up to an arrival and dispatches it, so it counts as a
// dispatch even when jobs completed inside it.
func classify(dPending int, dCompleted int64) int {
	switch {
	case dPending < 0:
		return stepDispatch
	case dCompleted > 0:
		return stepComplete
	default:
		return stepOther
	}
}

// stepper drives a session with Session.Step and times each step by class.
type stepper struct {
	s       *hierdrl.Session
	n       [numStepKinds]int64
	ns      [numStepKinds]int64
	samples [numStepKinds][]int64
}

func (st *stepper) step() (bool, error) {
	p0, c0 := st.s.Pending(), st.s.Completed()
	t0 := time.Now()
	ok, err := st.s.Step()
	d := since(t0)
	k := classify(st.s.Pending()-p0, st.s.Completed()-c0)
	st.n[k]++
	st.ns[k] += d
	st.samples[k] = append(st.samples[k], d)
	return ok, err
}

func (st *stepper) totalNs() int64 { return st.ns[0] + st.ns[1] + st.ns[2] }

// runTraced drives one traced pass: the same inputs as runPass, through the
// timed power manager, with the clock advanced by Session.Step so each step
// can be timed and classified. Its simulated results must equal the untraced
// pass's bit for bit. Coarse spans go to spans; per-layer metrics to m.
func runTraced(w *workload, cfg hierdrl.Config, jobs []hierdrl.Job, spans *spanLog, m map[string]float64) (*passResult, error) {
	pr := &passResult{submitted: int64(len(jobs))}
	root := spans.open("traced pass", 0)
	defer spans.close(root)

	cfg.DPM = tracedDPM
	var newNs int64
	if cfg.WarmupTrace != nil {
		bare := cfg
		bare.WarmupTrace = nil
		sp := spans.open("NewSession without warmup", root)
		t0 := time.Now()
		s, err := hierdrl.NewSession(bare, w.sessionOptions()...)
		newNs = since(t0)
		spans.close(sp)
		if err != nil {
			return pr, fmt.Errorf("NewSession: %w", err)
		}
		s.Close()
	}

	var transitions int64
	opts := append(w.sessionOptions(), hierdrl.WithObserver(hierdrl.Observer{
		OnModeTransition: func(hierdrl.Time, int, hierdrl.PowerState, hierdrl.PowerState) { transitions++ },
	}))
	if w.shards >= 2 {
		// Room for every epoch of the pass: one per dispatch (requeues
		// included) plus the stall and drain phases.
		opts = append(opts, hierdrl.WithEpochTrace(2*len(jobs)+4096))
	}
	lp := &probe{}
	activeProbe = lp
	sp := spans.open("NewSession", root)
	t0 := time.Now()
	s, err := hierdrl.NewSession(cfg, opts...)
	pr.setupNs = since(t0)
	spans.close(sp)
	activeProbe = nil
	if err != nil {
		return pr, fmt.Errorf("NewSession: %w", err)
	}
	defer s.Close()
	if cfg.WarmupTrace == nil {
		newNs = pr.setupNs
	} else {
		spans.derived("warmup", sp, pr.setupNs-newNs)
	}
	m["hierdrl.new_session_s"] = secs(newNs)
	m["global.warmup_s"] = secs(pr.setupNs - newNs)

	var sc *scraper
	if w.scrape {
		sc = startScraper(s.TelemetryAddr())
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	st := &stepper{s: s}
	var submitNs int64
	t1 := time.Now()
	// Chunk i+1 is submitted before the clock is advanced through chunk i,
	// so every job is in the queue before the engine can reach its arrival,
	// as when RunSource submits a chunk and then calls StepUntil. Stepping
	// to an empty queue instead would let a fault requeue with a later
	// arrival run ahead of the next chunk's first jobs.
	chunks := w.chunks(jobs)
	submit := func(i int) error {
		sp := spans.open(fmt.Sprintf("submit %d", i), root)
		ts := time.Now()
		err := s.SubmitTrace(&hierdrl.Trace{Jobs: chunks[i]})
		submitNs += since(ts)
		spans.close(sp)
		return err
	}
	err = submit(0)
	for i := 0; i < len(chunks) && err == nil; i++ {
		if i+1 < len(chunks) {
			if err = submit(i + 1); err != nil {
				break
			}
		}
		c := chunks[i]
		end := hierdrl.Time(c[len(c)-1].Arrival)
		sp := spans.open(fmt.Sprintf("advance %d", i), root)
		for err == nil && s.Now() < end {
			var ok bool
			if ok, err = st.step(); err == nil && !ok {
				err = fmt.Errorf("engine idle at t=%v before the last arrival at t=%v", s.Now(), end)
			}
		}
		spans.close(sp)
	}
	if err == nil {
		// Step reports idle once every job is accounted for. With faults
		// that holds only in the parallel tier: a strict-tier fault run
		// never idles, and Drain stops it on the job accounting instead.
		sp = spans.open("Drain (Step loop)", root)
		for ok := true; ok && err == nil; {
			ok, err = st.step()
		}
		spans.close(sp)
	}
	var res *hierdrl.Result
	var resultNs int64
	if err == nil {
		sp = spans.open("Result", root)
		tr := time.Now()
		res, err = s.Result()
		resultNs = since(tr)
		spans.close(sp)
	}
	pr.passNs = since(t1)
	spans.close(root) // the epoch-trace readout below is not part of the pass
	runtime.ReadMemStats(&ms1)
	pr.completed = s.Completed()
	if sc != nil {
		pr.scrapes, err = sc.stop(err)
	}
	if err != nil {
		return pr, err
	}
	pr.finish(res)

	m["hierdrl.submit_s"] = secs(submitNs)
	m["hierdrl.advance_s"] = secs(st.totalNs())
	m["hierdrl.result_s"] = secs(resultNs)
	m["hierdrl.steps"] = float64(st.n[0] + st.n[1] + st.n[2])
	for k, name := range [numStepKinds]string{"dispatch", "complete", "other"} {
		m["hierdrl."+name+"_steps"] = float64(st.n[k])
		m["hierdrl."+name+"_step_s"] = secs(st.ns[k])
		if k != stepOther {
			m["hierdrl."+name+"_step_p50_ns"] = float64(percentile(st.samples[k], 50))
			m["hierdrl."+name+"_step_p99_ns"] = float64(percentile(st.samples[k], 99))
		}
	}
	arrivalNs := lp.addTo(m)
	m["global.dispatch_self_s"] = secs(st.ns[stepDispatch] - arrivalNs)
	for _, ph := range shardPhases {
		m[ph.metric] = 0
	}
	if w.shards >= 2 {
		if err := readEpochTrace(s, w.shards, m); err != nil {
			return pr, err
		}
	}
	resultMetrics(res, transitions, pr.scrapes, m)
	m["runtime.allocs_per_job"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(jobs))
	m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["runtime.gc_pause_s"] = secs(int64(ms1.PauseTotalNs - ms0.PauseTotalNs))
	return pr, nil
}

// resultMetrics adds the counts the run's Result, its Observer and its
// scraper report.
func resultMetrics(res *hierdrl.Result, transitions int64, scrapes []float64, m map[string]float64) {
	sum := res.Summary
	m["cluster.wakeups"] = float64(res.TotalWakeups)
	m["cluster.shutdowns"] = float64(res.TotalShutdowns)
	m["cluster.mode_transitions"] = float64(transitions)
	m["fault.failures"] = float64(sum.Failures)
	m["fault.repairs"] = float64(sum.Repairs)
	m["fault.jobs_interrupted"] = float64(sum.JobsInterrupted)
	m["fault.jobs_retried"] = float64(sum.JobsRetried)
	m["fault.domain_outages"] = float64(sum.DomainOutages)
	m["fault.lost_work_s"] = sum.LostWorkSec
	m["telemetry.scrapes"] = float64(len(scrapes))
	m["telemetry.scrape_p50_us"], m["telemetry.scrape_max_us"] = 0, 0
	if len(scrapes) > 0 {
		m["telemetry.scrape_p50_us"] = median(scrapes)
		m["telemetry.scrape_max_us"] = slices.Max(scrapes)
	}
}

// shardPhases maps the epoch trace's segment names onto shard.* metrics.
// The first four are summed over the shards; replay and alloc+gemm run on
// the coordinator.
var shardPhases = []struct{ event, metric string }{
	{"barrier-wait", "shard.barrier_wait_s"},
	{"commit", "shard.commit_s"},
	{"run", "shard.run_s"},
	{"refresh+encode", "shard.refresh_s"},
	{"replay", "shard.replay_s"},
	{"alloc+gemm", "shard.alloc_s"},
}

// readEpochTrace streams the session's epoch trace (Chrome trace-event JSON
// from Session.WriteEpochTrace) and sums each phase's durations into m. It
// fails if the ring dropped epochs, since the sums would then miss them.
func readEpochTrace(s *hierdrl.Session, p int, m map[string]float64) error {
	r, w := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.CloseWithError(s.WriteEpochTrace(w))
	}()
	err := sumEpochTrace(bufio.NewReaderSize(r, 1<<16), p, m)
	r.CloseWithError(io.ErrClosedPipe) // unblocks the writer if parsing stopped early
	<-done
	return err
}

func sumEpochTrace(r io.Reader, p int, m map[string]float64) error {
	metric := map[string]string{}
	for _, ph := range shardPhases {
		metric[ph.event] = ph.metric
	}
	dec := json.NewDecoder(r)
	for {
		tok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("epoch trace: %w", err)
		}
		if key, ok := tok.(string); ok && key == "traceEvents" {
			break
		}
	}
	if _, err := dec.Token(); err != nil { // '['
		return fmt.Errorf("epoch trace: %w", err)
	}
	minEpoch := int64(-1)
	for dec.More() {
		var ev struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Dur  float64 `json:"dur"` // µs
			Args struct {
				Epoch int64 `json:"epoch"`
			} `json:"args"`
		}
		if err := dec.Decode(&ev); err != nil {
			return fmt.Errorf("epoch trace: %w", err)
		}
		if ev.Ph != "X" {
			continue
		}
		name, ok := metric[ev.Name]
		coordinator := ev.Name == "replay" || ev.Name == "alloc+gemm"
		if !ok || coordinator != (ev.Tid == p) {
			return fmt.Errorf("epoch trace: unexpected event %q on thread %d", ev.Name, ev.Tid)
		}
		m[name] += ev.Dur / 1e6
		if minEpoch < 0 || ev.Args.Epoch < minEpoch {
			minEpoch = ev.Args.Epoch
		}
	}
	if minEpoch > 1 {
		return fmt.Errorf("epoch trace: ring dropped epochs 1..%d", minEpoch-1)
	}
	return nil
}

// scraper reads the telemetry endpoint's /metrics every scrapePeriod on its
// own goroutine, as a monitoring agent beside the run would.
type scraper struct {
	quit chan struct{}
	done chan struct{}
	us   []float64
	err  error
}

func startScraper(addr string) *scraper {
	sc := &scraper{quit: make(chan struct{}), done: make(chan struct{})}
	client := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{}}
	go func() {
		defer close(sc.done)
		defer client.CloseIdleConnections()
		tick := time.NewTicker(scrapePeriod)
		defer tick.Stop()
		for {
			select {
			case <-sc.quit:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			resp, err := client.Get("http://" + addr + "/metrics")
			if err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %s", resp.Status)
				}
			}
			if err != nil {
				sc.err = fmt.Errorf("scrape /metrics: %w", err)
				return
			}
			sc.us = append(sc.us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}()
	return sc
}

// stop ends the scraper, waits for it, and returns its latencies and the
// pass error, or the scraper's own error if the pass had none.
func (sc *scraper) stop(passErr error) ([]float64, error) {
	close(sc.quit)
	<-sc.done
	if passErr == nil {
		passErr = sc.err
	}
	return sc.us, passErr
}

// spanLog keeps the traced run's coarse spans in memory and writes them as
// Chrome trace-event JSON at exit.
type spanLog struct {
	workload string
	base     time.Time
	spans    []span
}

type span struct {
	id, parent     int
	name           string
	startNs, durNs int64
	derived        bool // duration computed as a difference, not timed directly
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, base: time.Now()}
}

func (l *spanLog) open(name string, parent int) int {
	l.spans = append(l.spans, span{id: len(l.spans) + 1, parent: parent, name: name, startNs: since(l.base)})
	return len(l.spans)
}

// close ends span id; closing it again keeps the first end.
func (l *spanLog) close(id int) {
	if sp := &l.spans[id-1]; sp.durNs == 0 {
		sp.durNs = since(l.base) - sp.startNs
	}
}

// derived records a child of parent whose duration is known only as a
// difference of two timed calls; it is placed at the parent's start.
func (l *spanLog) derived(name string, parent int, durNs int64) {
	p := l.spans[parent-1]
	l.spans = append(l.spans, span{id: len(l.spans) + 1, parent: parent, name: name,
		startNs: p.startNs, durNs: durNs, derived: true})
}

func (l *spanLog) write(path string) error {
	type args struct {
		Workload string `json:"workload"`
		ID       int    `json:"span_id"`
		Parent   int    `json:"parent_id"`
		Derived  bool   `json:"derived,omitempty"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Args args    `json:"args"`
	}
	doc := struct {
		Events []event `json:"traceEvents"`
	}{}
	for _, sp := range l.spans {
		doc.Events = append(doc.Events, event{Name: sp.name, Ph: "X", Pid: 1, Tid: 1,
			Ts: float64(sp.startNs) / 1e3, Dur: float64(sp.durNs) / 1e3,
			Args: args{Workload: l.workload, ID: sp.id, Parent: sp.parent, Derived: sp.derived}})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
