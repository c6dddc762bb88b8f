package hierdrl_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"hierdrl"
)

// obsCfg builds the observability smoke configuration: least-loaded dispatch
// with exponential crash/repair faults aggressive enough for a few-thousand-
// job run to see crashes while being scraped.
func obsCfg(m int) hierdrl.Config {
	cfg := hierdrl.RoundRobin(m)
	cfg.Name = "obs-smoke"
	cfg.Alloc = hierdrl.AllocLeastLoaded
	cfg.Faults = hierdrl.FaultExpCrash
	cfg.MTTFSec = 20000
	cfg.MTTRSec = 600
	cfg.Retry = hierdrl.RetryImmediate
	return cfg
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// metricValue extracts the value of the exact series line "name value" (name
// including its label set) from a Prometheus text body.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("series %s: parse %q: %v", series, rest, err)
		}
		return v
	}
	t.Fatalf("series %s not found in /metrics body:\n%s", series, body)
	return 0
}

// TestObsSmoke is the live-telemetry acceptance run: a sharded (P=2) fault-
// injected workload scraped mid-run — /metrics must expose the simulation
// and process families, /healthz must answer — and, after completion, the
// published t-digest p99 must fall within the documented q-space error of
// the exact latency distribution collected through the Observer.
func TestObsSmoke(t *testing.T) {
	m := 8
	cfg := obsCfg(m)
	tr := hierdrl.SyntheticTraceForCluster(3000, m, 7)

	var exact []float64
	obs := hierdrl.Observer{OnJobDone: func(_ hierdrl.Time, j *hierdrl.ClusterJob) {
		exact = append(exact, j.Latency())
	}}
	s, err := hierdrl.NewSession(cfg,
		hierdrl.WithShards(2),
		hierdrl.WithTelemetry("127.0.0.1:0"),
		hierdrl.WithObserver(obs))
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	defer s.Close()
	addr := s.TelemetryAddr()
	if addr == "" {
		t.Fatal("TelemetryAddr empty with WithTelemetry configured")
	}
	if err := s.SubmitTrace(tr); err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Run to roughly the half-way point, then scrape while the session is
	// live (parked between decision epochs). Publishes are wall-clock
	// throttled to ~4/s, so wait out the gap and step again to force a
	// mid-run publish before scraping.
	for s.Completed() < 1500 && !s.Drained() {
		if _, err := s.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	time.Sleep(300 * time.Millisecond)
	for s.Completed() < 2100 && !s.Drained() {
		if _, err := s.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	if hz := httpGet(t, "http://"+addr+"/healthz"); hz != "ok\n" {
		t.Fatalf("/healthz = %q", hz)
	}
	mid := httpGet(t, "http://"+addr+"/metrics")
	for _, fam := range []string{
		"hiersim_sim_time_seconds",
		"hiersim_jobs_completed_total",
		"hiersim_jobs_in_system",
		"hiersim_power_watts",
		"hiersim_energy_kwh",
		"hiersim_jobs_per_second",
		"hiersim_events_per_second",
		"hiersim_failures_total",
		"hiersim_availability",
		`hiersim_latency_seconds{quantile="0.99"}`,
		`hiersim_latency_seconds{class="short",quantile="0.5"}`,
		"hiersim_wait_seconds",
		"go_goroutines",
		"go_heap_alloc_bytes",
		"process_uptime_seconds",
	} {
		if !strings.Contains(mid, fam) {
			t.Errorf("mid-run /metrics missing %s", fam)
		}
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+addr+"/snapshot")), &rec); err != nil {
		t.Fatalf("/snapshot not JSON: %v", err)
	}
	if c, _ := rec["completed"].(float64); c < 500 {
		t.Errorf("/snapshot completed %v, want >= 500 (publish cadence)", rec["completed"])
	}

	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := s.Result(); err != nil {
		t.Fatalf("result: %v", err)
	}

	// Result publishes the final blobs: the served p99 must land inside the
	// exact distribution's [0.985, 0.995] quantile window (DESIGN.md §17's
	// documented ±0.004 q-space bound at p99, with slack for interpolation).
	final := httpGet(t, "http://"+addr+"/metrics")
	p99 := metricValue(t, final, `hiersim_latency_seconds{quantile="0.99"}`)
	sort.Float64s(exact)
	n := len(exact)
	if n < 2000 {
		t.Fatalf("only %d completions observed", n)
	}
	lo := exact[int(0.985*float64(n-1))]
	hi := exact[int(0.995*float64(n-1))]
	if p99 < lo || p99 > hi {
		t.Errorf("published p99 %v outside exact window [%v, %v] (n=%d)", p99, lo, hi, n)
	}
	if got := metricValue(t, final, "hiersim_jobs_completed_total"); int(got) != n {
		t.Errorf("published completions %v, observer saw %d", got, n)
	}

	// The /snapshot body and Session.SnapshotJSON share one schema and, with
	// the engine idle since the final publish, one byte stream.
	snapBody := httpGet(t, "http://"+addr+"/snapshot")
	js, err := s.SnapshotJSON()
	if err != nil {
		t.Fatalf("SnapshotJSON: %v", err)
	}
	if snapBody != string(js) {
		t.Errorf("/snapshot and SnapshotJSON diverge:\n%s\nvs\n%s", snapBody, js)
	}
}

// TestTelemetryPreservesBitwiseMetrics asserts the observability layer's
// zero-perturbation contract: attaching WithTelemetry (sketches feeding a
// live endpoint) changes no summary bit of a strict-tier run.
func TestTelemetryPreservesBitwiseMetrics(t *testing.T) {
	m := 8
	cfg := hierdrl.RoundRobin(m)
	tr := hierdrl.SyntheticTraceForCluster(800, m, 7)
	base, err := hierdrl.Run(cfg, tr)
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	wired, err := hierdrl.RunWith(cfg, tr, hierdrl.WithTelemetry("127.0.0.1:0"))
	if err != nil {
		t.Fatalf("telemetry run: %v", err)
	}
	if summaryBits(base.Summary) != summaryBits(wired.Summary) {
		t.Fatalf("telemetry perturbed the summary: %+v vs %+v", base.Summary, wired.Summary)
	}
}

// TestSketchOnlySummary asserts the constant-memory mode: exact aggregate
// metrics survive bitwise (they never depended on the sample slices), and
// the sketch-answered quantiles land inside tight q-space windows of the
// exact distribution collected through the Observer.
func TestSketchOnlySummary(t *testing.T) {
	m := 8
	cfg := hierdrl.RoundRobin(m)
	cfg.Alloc = hierdrl.AllocLeastLoaded
	tr := hierdrl.SyntheticTraceForCluster(4000, m, 11)

	base, err := hierdrl.Run(cfg, tr)
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	var exact []float64
	obs := hierdrl.Observer{OnJobDone: func(_ hierdrl.Time, j *hierdrl.ClusterJob) {
		exact = append(exact, j.Latency())
	}}
	sk, err := hierdrl.RunWith(cfg, tr, hierdrl.WithSketchOnly(), hierdrl.WithObserver(obs))
	if err != nil {
		t.Fatalf("sketch-only: %v", err)
	}
	if math.Float64bits(sk.Summary.EnergykWh) != math.Float64bits(base.Summary.EnergykWh) ||
		math.Float64bits(sk.Summary.AccLatencySec) != math.Float64bits(base.Summary.AccLatencySec) ||
		math.Float64bits(sk.Summary.AvgLatencySec) != math.Float64bits(base.Summary.AvgLatencySec) ||
		math.Float64bits(sk.Summary.MeanWaitSec) != math.Float64bits(base.Summary.MeanWaitSec) {
		t.Fatalf("sketch-only perturbed exact aggregates: %+v vs %+v", sk.Summary, base.Summary)
	}
	sort.Float64s(exact)
	n := len(exact)
	window := func(q, w float64) (float64, float64) {
		loQ, hiQ := math.Max(q-w, 0), math.Min(q+w, 1)
		return exact[int(loQ*float64(n-1))], exact[int(hiQ*float64(n-1))]
	}
	for _, c := range []struct {
		name string
		got  float64
		q, w float64
	}{
		{"p50", sk.Summary.P50LatencySec, 0.50, 0.02},
		{"p95", sk.Summary.P95LatencySec, 0.95, 0.008},
		{"p99", sk.Summary.P99LatencySec, 0.99, 0.005},
	} {
		lo, hi := window(c.q, c.w)
		if c.got < lo || c.got > hi {
			t.Errorf("%s %v outside exact window [%v, %v]", c.name, c.got, lo, hi)
		}
	}
}

// traceEvent is one Chrome trace-event record of an epoch-trace dump.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

// epochTraceRun drains a least-loaded run on m servers at p shards with the
// decision-epoch ring attached, and returns its Chrome trace dump after
// checking every complete event is well formed. It returns the track names
// from the metadata events and the set of tids carrying complete events.
func epochTraceRun(t *testing.T, m, p int) (tracks []string, tids map[int]bool) {
	t.Helper()
	cfg := hierdrl.RoundRobin(m)
	cfg.Alloc = hierdrl.AllocLeastLoaded
	tr := hierdrl.SyntheticTraceForCluster(400, m, 7)
	s, err := hierdrl.NewSession(cfg, hierdrl.WithShards(p), hierdrl.WithEpochTrace(4096))
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	defer s.Close()
	if err := s.SubmitTrace(tr); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := s.Result(); err != nil {
		t.Fatalf("result: %v", err)
	}
	var buf bytes.Buffer
	if err := s.WriteEpochTrace(&buf); err != nil {
		t.Fatalf("WriteEpochTrace: %v", err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	names := map[string]bool{}
	tids = map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			tracks = append(tracks, fmt.Sprint(ev.Args["name"]))
			continue
		}
		if ev.Ph != "X" {
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
		if ev.Dur <= 0 {
			t.Fatalf("event %s has non-positive dur %v", ev.Name, ev.Dur)
		}
		names[ev.Name] = true
		tids[ev.Tid] = true
		if _, ok := ev.Args["epoch"]; !ok {
			t.Fatalf("event %s missing epoch arg", ev.Name)
		}
	}
	for _, want := range []string{"run", "replay", "alloc+gemm"} {
		if !names[want] {
			t.Errorf("trace missing %q events (got %v)", want, names)
		}
	}
	return tracks, tids
}

// TestEpochTraceChromeJSON drives a sharded run with the decision-epoch ring
// attached and asserts the dump is loadable Chrome trace-event JSON with
// per-shard phases and the coordinator's replay/alloc segments visible.
func TestEpochTraceChromeJSON(t *testing.T) {
	_, tids := epochTraceRun(t, 8, 2)
	// Both shards and the coordinator row (tid = P) must be populated.
	for _, tid := range []int{0, 1, 2} {
		if !tids[tid] {
			t.Errorf("trace missing events for tid %d (got %v)", tid, tids)
		}
	}
}

// TestEpochTraceOneShard pins epoch tracing at P=1: the one shard runs
// inline on the coordinator, so the dump holds exactly one shard track plus
// the coordinator's.
func TestEpochTraceOneShard(t *testing.T) {
	tracks, tids := epochTraceRun(t, 4, 1)
	if want := []string{"shard 0", "coordinator"}; fmt.Sprint(tracks) != fmt.Sprint(want) {
		t.Errorf("tracks %q, want %q", tracks, want)
	}
	if len(tids) != 2 || !tids[0] || !tids[1] {
		t.Errorf("events on tids %v, want shard 0 and the coordinator (tid 1)", tids)
	}
}

// TestCheckpointRoundTripSketches checkpoints a sketch-only fault run
// mid-stream and resumes it twice — with and without re-attaching the
// option — asserting both continuations reproduce the uninterrupted run's
// sketch-answered quantiles bitwise (the snapshot is authoritative for the
// collection mode and the digest state).
func TestCheckpointRoundTripSketches(t *testing.T) {
	m := 8
	cfg := obsCfg(m)
	tr := hierdrl.SyntheticTraceForCluster(2000, m, 13)

	run := func(opts ...hierdrl.SessionOption) *hierdrl.Session {
		t.Helper()
		s, err := hierdrl.NewSession(cfg, opts...)
		if err != nil {
			t.Fatalf("session: %v", err)
		}
		if err := s.SubmitTrace(tr); err != nil {
			t.Fatalf("submit: %v", err)
		}
		return s
	}
	finish := func(s *hierdrl.Session) hierdrl.Summary {
		t.Helper()
		if err := s.Drain(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		res, err := s.Result()
		if err != nil {
			t.Fatalf("result: %v", err)
		}
		return res.Summary
	}
	quantBits := func(s hierdrl.Summary) [3]uint64 {
		return [3]uint64{
			math.Float64bits(s.P50LatencySec),
			math.Float64bits(s.P95LatencySec),
			math.Float64bits(s.P99LatencySec),
		}
	}

	// Uninterrupted reference.
	ref := run(hierdrl.WithSketchOnly())
	defer ref.Close()
	want := finish(ref)

	// Interrupted at ~1000 completions, snapshotted, resumed.
	s := run(hierdrl.WithSketchOnly())
	defer s.Close()
	for s.Completed() < 1000 && !s.Drained() {
		if _, err := s.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	var snap bytes.Buffer
	if err := s.Checkpoint(&snap); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	for _, opts := range [][]hierdrl.SessionOption{nil, {hierdrl.WithSketchOnly()}} {
		r, err := hierdrl.Restore(bytes.NewReader(snap.Bytes()), opts...)
		if err != nil {
			t.Fatalf("restore (opts %v): %v", opts, err)
		}
		got := finish(r)
		r.Close()
		if quantBits(got) != quantBits(want) {
			t.Fatalf("resumed quantiles diverged (opts %v): %+v vs %+v", opts, got, want)
		}
		if math.Float64bits(got.EnergykWh) != math.Float64bits(want.EnergykWh) ||
			got.Jobs != want.Jobs {
			t.Fatalf("resumed run diverged (opts %v): %+v vs %+v", opts, got, want)
		}
	}
}
