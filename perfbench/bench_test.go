package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hierdrl"
)

// The traced pass swaps in the timed power manager and drives the engine
// with Step; neither may change a simulated bit, in either tier.
func TestTracedPassIsTransparent(t *testing.T) {
	// Small versions of three workloads: the strict tier with the DRL agent,
	// the parallel tier over several stream chunks, and the parallel tier
	// with rack outages, backoff requeues and the scraper. At the outage
	// size a requeued job is still pending when a chunk's last arrival is
	// dispatched, so submitting the next chunk only once the queue runs
	// empty would dispatch some of its jobs late and change the results.
	for _, tc := range []struct {
		name   string
		inputs func() (hierdrl.Config, []hierdrl.Job, error)
	}{
		{"paper-hier", func() (hierdrl.Config, []hierdrl.Job, error) { return paperInputs(600, 200, 3) }},
		{"scale-p2", func() (hierdrl.Config, []hierdrl.Job, error) { return scaleInputs(64, 3*streamChunk/2, 5) }},
		{"outage-live", func() (hierdrl.Config, []hierdrl.Job, error) { return outageInputs(outageM, 70_000, 1) }},
	} {
		w, _ := lookupWorkload(tc.name)
		cfg, jobs, err := tc.inputs()
		if err != nil {
			t.Fatal(err)
		}
		plain, err := runPass(w, cfg, jobs)
		if err != nil {
			t.Fatalf("%s untraced: %v", w.name, err)
		}
		m := map[string]float64{}
		traced, err := runTraced(w, cfg, jobs, newSpanLog(w.name), m)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if traced.sim != plain.sim || traced.completed != plain.completed {
			t.Errorf("%s: traced %+v (%d jobs) != untraced %+v (%d jobs)",
				w.name, traced.sim, traced.completed, plain.sim, plain.completed)
		}
		if m["local.on_arrival_calls"] == 0 || m["lstm.observe_calls"] == 0 {
			t.Errorf("%s: timed power manager saw no calls: %v", w.name, m)
		}
		if got := m["hierdrl.dispatch_steps"]; got < float64(len(jobs)) {
			t.Errorf("%s: %v dispatch steps for %d jobs", w.name, got, len(jobs))
		}
		if sharded := m["shard.run_s"] > 0; sharded != (w.shards > 1) {
			t.Errorf("%s: shard.run_s = %v at %d shards", w.name, m["shard.run_s"], w.shards)
		}
		if w.name == "outage-live" && m["fault.jobs_retried"] == 0 {
			t.Errorf("%s: no fault requeues at this size", w.name)
		}
	}
}
func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		dPending   int
		dCompleted int64
		want       int
	}{
		{-1, 0, stepDispatch},
		{-1, 3, stepDispatch}, // a parallel-tier epoch completes jobs on its way to the arrival
		{0, 1, stepComplete},
		{1, 1, stepComplete}, // a fault requeue beside a completion
		{0, 0, stepOther},
		{2, 0, stepOther}, // requeues only
	} {
		if got := classify(tc.dPending, tc.dCompleted); got != tc.want {
			t.Errorf("classify(%d, %d) = %d, want %d", tc.dPending, tc.dCompleted, got, tc.want)
		}
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3.5, 1.25, 9, 2, 7, 7, 0.5}, [3]float64{1.25, 3.5, 7}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if q1, _, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Errorf("quartiles of one value = %v, want NaN", q1)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != (8.25-2.75)/5.5 {
		t.Errorf("spread = %v", got)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if xs[0] != 3 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median of none = %v", got)
	}
	samples := make([]int64, 200)
	for i := range samples {
		samples[i] = int64(200 - i) // 1..200, reversed
	}
	if p50, p99 := percentile(samples, 50), percentile(samples, 99); p50 != 100 || p99 != 198 {
		t.Errorf("percentiles = %d, %d; want 100, 198", p50, p99)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of none = %d", got)
	}
}

func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds("0-3, 7919,12")
	if want := []int64{0, 1, 2, 3, 7919, 12}; err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("parseSeeds = %v, %v; want %v", got, err, want)
	}
	for _, bad := range []string{"", "x", "3-1", "1-"} {
		if _, err := parseSeeds(bad); err == nil {
			t.Errorf("parseSeeds(%q) accepted", bad)
		}
	}
}

func TestSumEpochTrace(t *testing.T) {
	const trace = `{"displayTimeUnit":"ms","traceEvents":[
{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"shard 0"}},
{"name":"run","ph":"X","pid":1,"tid":0,"ts":1,"dur":2.5,"args":{"epoch":1,"t_sim_s":0,"mode":"epoch"}},
{"name":"barrier-wait","ph":"X","pid":1,"tid":1,"ts":1,"dur":4,"args":{"epoch":1,"t_sim_s":0,"mode":"epoch"}},
{"name":"run","ph":"X","pid":1,"tid":1,"ts":5,"dur":1.5,"args":{"epoch":2,"t_sim_s":3,"mode":"epoch"}},
{"name":"replay","ph":"X","pid":1,"tid":2,"ts":9,"dur":3,"args":{"epoch":2,"t_sim_s":3,"mode":"epoch"}}]}`
	m := map[string]float64{}
	if err := sumEpochTrace(strings.NewReader(trace), 2, m); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"shard.run_s": 4e-6, "shard.barrier_wait_s": 4e-6, "shard.replay_s": 3e-6}
	if len(m) != len(want) {
		t.Errorf("sums = %v, want %v", m, want)
	}
	for k, v := range want {
		if math.Abs(m[k]-v) > 1e-15 {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	wrapped := strings.ReplaceAll(trace, `"epoch":1,`, `"epoch":3,`)
	wrapped = strings.ReplaceAll(wrapped, `"epoch":2,`, `"epoch":4,`)
	if err := sumEpochTrace(strings.NewReader(wrapped), 2, map[string]float64{}); err == nil {
		t.Error("a ring that dropped epochs was accepted")
	}
	misplaced := strings.Replace(trace, `"name":"replay","ph":"X","pid":1,"tid":2`, `"name":"replay","ph":"X","pid":1,"tid":0`, 1)
	if err := sumEpochTrace(strings.NewReader(misplaced), 2, map[string]float64{}); err == nil {
		t.Error("a coordinator phase on a shard thread was accepted")
	}
}

// benchmarkSpec is BENCHMARK.json's schema; decoding rejects unknown keys.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONRoundTrip(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	// Every key of the file maps onto the schema and back.
	var a, b map[string]any
	back, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(back, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("round trip changed BENCHMARK.json:\n%s\nvs\n%s", raw, back)
	}

	if want := []string{"bash", "perfbench/run.sh"}; !reflect.DeepEqual(spec.Command, want) {
		t.Errorf("command = %q, want %q", spec.Command, want)
	}
	if want := []string{"perfbench"}; !reflect.DeepEqual(spec.Paths, want) {
		t.Errorf("paths = %q, want %q", spec.Paths, want)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	// A full evaluation makes 4 + 22 runs per workload, plus two cold builds of
	// about a minute, within 3420 s. A run takes about 8 s beyond its measured time:
	// job generation, the pass that overruns the budget, setup-only sessions.
	if runs := 4 + 22*len(spec.Workloads); runs*(spec.RunSeconds+8)+2*60 > 3420 {
		t.Errorf("%d runs of about %d s exceed the time budget", runs, spec.RunSeconds+8)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d = %q (%q), program has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v, program reports %+v", spec.EndToEnd, endToEnd)
	}
	for _, d := range spec.EndToEnd {
		checkName(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("bad end-to-end metric %+v", d)
		}
		if d.Name == "setup_s" && (d.Unit != "s" || d.Better != "lower") {
			t.Errorf("setup_s = %+v", d)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range spec.PerLayer {
		checkName(d.Name)
		if p := perLayer[i]; d.Name != p.Name || d.Unit != p.Unit || d.Better != p.Better {
			t.Errorf("per_layer %d = %+v, program reports %+v", i, d, p)
		}
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("bad per-layer metric %+v", d)
		}
	}
}

// Every workload has recorded results at the tuning and held-out seeds, and
// the parallel tier's record equals the strict tier's at every seed.
func TestExpectedResults(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	if exp.TuningSeed == exp.HeldOutSeed {
		t.Errorf("held-out seed %d is the tuning seed", exp.HeldOutSeed)
	}
	for _, w := range workloads {
		for _, seed := range []int64{exp.TuningSeed, exp.HeldOutSeed} {
			if _, ok := exp.recorded(w.name, seed); !ok {
				t.Errorf("%s: no recorded results at seed %d", w.name, seed)
			}
		}
	}
	for seed, p1 := range exp.Workloads["scale-p1"] {
		n, _ := strconv.ParseInt(seed, 10, 64)
		if p2, ok := exp.recorded("scale-p2", n); !ok || p2 != p1 {
			t.Errorf("seed %s: scale-p2 %+v != scale-p1 %+v", seed, p2, p1)
		}
	}
}
