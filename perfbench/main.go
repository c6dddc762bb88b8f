// Command perfbench is the repository's end-to-end benchmark. It generates
// each workload's jobs in its own process from --seed, feeds them to the
// simulator through the public Session API, checks the simulated results
// against the recorded ones, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload scale-p1 --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload all --seeds 1,2,3 --seconds 5
//	bash perfbench/run.sh --record perfbench/expected.json --seeds 0-40,7919
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// metrics from a separate traced pass (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hierdrl"
)

// minPasses is the fewest measured passes a run makes, however short
// --seconds is, so every reported median has several samples behind it.
// setup_s is a median over at least minSetups sessions: those of the passes,
// topped up with sessions that are built and closed without a pass.
const (
	minPasses = 3
	minSetups = 11
)

// result is the JSON line a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run, or \"all\" for every workload in child processes")
	seed := flag.Int64("seed", 1, "workload seed")
	seeds := flag.String("seeds", "", "seed list for --workload all and --record, e.g. 1-10,7919")
	seconds := flag.Int("seconds", 15, "measurement time per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from traced passes")
	recordPath := flag.String("record", "", "record the exact simulated results for --seeds into this file and exit")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("bad arguments %q", os.Args[1:])
	}

	exp, err := loadExpected()
	if err != nil {
		fatalf("%v", err)
	}
	switch {
	case *recordPath != "":
		list, err := parseSeeds(*seeds)
		if err == nil {
			err = record(*recordPath, list, exp.TuningSeed, exp.HeldOutSeed)
		}
		if err != nil {
			fatalf("record: %v", err)
		}
	case *name == "all":
		list := []int64{*seed}
		if *seeds != "" {
			if list, err = parseSeeds(*seeds); err != nil {
				fatalf("%v", err)
			}
		}
		if !runAll(exp, list, *seconds) {
			os.Exit(1)
		}
	default:
		w, ok := lookupWorkload(*name)
		if !ok {
			fatalf("unknown workload %q (have %s, all)", *name, strings.Join(workloadNames(), ", "))
		}
		if ctx := currentContext(); ctx != exp.Context {
			fmt.Fprintf(os.Stderr, "perfbench: timings recorded on %+v, running on %+v\n", exp.Context, ctx)
		}
		budget := time.Duration(*seconds) * time.Second
		var res *result
		if *trace == 1 {
			res = runTracedWorkload(w, exp, *seed, budget, filepath.Join(".bench_build", "spans-"+w.name+".json"))
		} else {
			res = runWorkload(w, exp, *seed, budget)
		}
		b, err := json.Marshal(res)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(b))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// parseSeeds reads a comma-separated list of seeds and inclusive ranges.
func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, f := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(strings.TrimSpace(f), "-")
		a, err := strconv.ParseInt(lo, 10, 64)
		b := a
		if err == nil && isRange {
			b, err = strconv.ParseInt(hi, 10, 64)
		}
		if err != nil || b < a {
			return nil, fmt.Errorf("bad seed list %q", s)
		}
		for v := a; v <= b; v++ {
			out = append(out, v)
		}
	}
	return out, nil
}

// checker accumulates a run's correctness verdict: every pass must account
// for all its jobs and reproduce the expected simulated results bit for bit.
type checker struct {
	name      string
	want      *simStats // recorded or first-pass results
	attempted int64
	failed    int64
	ok        bool
}

func newChecker(w *workload, exp *expectedFile, seed int64) *checker {
	c := &checker{name: w.name, ok: true}
	if rec, ok := exp.recorded(w.name, seed); ok {
		c.want = &rec
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: no recorded results for %s seed %d; checking run-to-run agreement only\n", w.name, seed)
	}
	return c
}

// pass checks one pass and reports whether it passed. A pass that erred or
// disagrees counts all its jobs as failed.
func (c *checker) pass(label string, pr *passResult, err error) bool {
	c.attempted += pr.submitted
	if err == nil && pr.completed+pr.lost != pr.submitted {
		err = fmt.Errorf("%d completed + %d lost != %d submitted", pr.completed, pr.lost, pr.submitted)
	}
	if err == nil && c.want != nil && pr.sim != *c.want {
		err = fmt.Errorf("simulated results %+v, want %+v", pr.sim, *c.want)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s %s: %v\n", c.name, label, err)
		c.failed += pr.submitted
		c.ok = false
		return false
	}
	c.failed += pr.lost
	if c.want == nil {
		s := pr.sim
		c.want = &s
	}
	return true
}

func (c *checker) result(metrics map[string]float64, defs []metricDef) *result {
	r := &result{Correct: c.ok && c.failed == 0, Attempted: c.attempted, Failed: c.failed,
		Metrics: map[string]metricValue{}}
	if r.Attempted == 0 {
		r.Attempted, r.Failed, r.Correct = 1, 1, false
	}
	for _, d := range defs {
		v, ok := metrics[d.Name]
		if !ok && c.ok {
			r.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s not measured\n", c.name, d.Name)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return r
}

// strictReference names the strict-tier workload a parallel-tier workload
// must reproduce bit for bit ("parallel P equals strict").
var strictReference = map[string]string{"scale-p2": "scale-p1"}

// runWorkload makes an untraced run: passes over the same inputs until the
// time budget is spent (at least minPasses), reporting medians.
func runWorkload(w *workload, exp *expectedFile, seed int64, budget time.Duration) *result {
	c := newChecker(w, exp, seed)
	cfg, jobs, err := w.inputs(seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s inputs: %v\n", w.name, err)
		return c.result(nil, endToEnd)
	}
	if refName, ok := strictReference[w.name]; ok {
		ref, _ := lookupWorkload(refName)
		pr, err := runPass(ref, cfg, jobs)
		c.pass("strict reference pass", pr, err)
	}
	var setup, rate []float64
	var sim simStats // the same in every pass: the checker compares them
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < budget; i++ {
		runtime.GC() // start every pass from the same heap state
		pr, err := runPass(w, cfg, jobs)
		if !c.pass(fmt.Sprintf("pass %d", i), pr, err) {
			break
		}
		setup = append(setup, secs(pr.setupNs))
		rate = append(rate, float64(pr.completed)/secs(pr.passNs))
		sim = pr.sim
	}
	for len(rate) > 0 && len(setup) < minSetups {
		runtime.GC()
		t0 := time.Now()
		s, err := hierdrl.NewSession(cfg, w.sessionOptions()...)
		setup = append(setup, time.Since(t0).Seconds())
		if err != nil {
			c.pass("setup-only session", &passResult{}, fmt.Errorf("NewSession: %w", err))
			break
		}
		s.Close()
	}
	m := map[string]float64{}
	if len(rate) > 0 && c.ok {
		m["setup_s"] = median(setup)
		m["jobs_per_s"] = median(rate)
		m["peak_rss_mb"] = peakRSSMB()
		m["energy_kwh"] = sim.EnergyKWh
		m["latency_avg_s"] = sim.LatAvgSec
		m["latency_p99_s"] = sim.LatP99Sec
		q1, _, q3 := quartiles(rate)
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d passes, jobs_per_s quartiles %.6g..%.6g\n",
			w.name, seed, len(rate), q1, q3)
	}
	return c.result(m, endToEnd)
}

// runTracedWorkload makes a traced run: pairs of an untraced and a traced
// pass until the budget is spent (at least one pair). Each per-layer metric
// is the median over the traced passes; the overhead compares the medians of
// the two kinds of pass.
func runTracedWorkload(w *workload, exp *expectedFile, seed int64, budget time.Duration, spansPath string) *result {
	c := newChecker(w, exp, seed)
	t0 := time.Now()
	cfg, jobs, err := w.inputs(seed)
	genS := time.Since(t0).Seconds()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s inputs: %v\n", w.name, err)
		return c.result(nil, perLayer)
	}
	spans := newSpanLog(w.name)
	samples := map[string][]float64{}
	var plain, traced []float64
	start := time.Now()
	for i := 0; i < 1 || time.Since(start) < budget; i++ {
		runtime.GC()
		pr, err := runPass(w, cfg, jobs)
		if !c.pass(fmt.Sprintf("untraced pass %d", i), pr, err) {
			break
		}
		plain = append(plain, secs(pr.passNs))
		runtime.GC()
		m := map[string]float64{}
		pr, err = runTraced(w, cfg, jobs, spans, m)
		if !c.pass(fmt.Sprintf("traced pass %d", i), pr, err) {
			break
		}
		traced = append(traced, secs(pr.passNs))
		for k, v := range m {
			samples[k] = append(samples[k], v)
		}
	}
	m := map[string]float64{}
	if len(traced) > 0 {
		for k, vs := range samples {
			m[k] = median(vs)
		}
		m["workload.gen_s"] = genS
		m["bench.trace_overhead_pct"] = 100 * (median(traced)/median(plain) - 1)
	}
	err = os.MkdirAll(filepath.Dir(spansPath), 0o755)
	if err == nil {
		err = spans.write(spansPath)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: spans: %v\n", err)
	}
	return c.result(m, perLayer)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB of 2^20
// bytes.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
