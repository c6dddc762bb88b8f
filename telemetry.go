// Live telemetry: WithTelemetry attaches an HTTP observability endpoint
// (Prometheus /metrics, /healthz, /snapshot JSON, net/http/pprof) to a
// running session, WithSketchOnly switches the metrics collector to
// constant-memory quantile sketches (dropping the O(jobs) sample slices),
// and WithEpochTrace records the engine's decision-epoch phases into
// a fixed ring dumpable as Chrome trace-event JSON. The HTTP goroutines read
// only immutable blobs published at epoch boundaries, so telemetry never
// perturbs the simulation's determinism contract (DESIGN.md §17).
package hierdrl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"hierdrl/internal/telemetry"
)

// WithSketchOnly drops the collector's per-job latency/wait sample slices and
// answers the summary quantiles (p50/p95/p99, mean wait) from merging
// t-digest sketches instead: memory stays constant in the job count, at the
// cost of the documented sketch error (DESIGN.md §17; |q̂-q| ≲ 0.004 in
// q-space at p99 with the default compression). Exact-quantile goldens do not
// hold under this option — it is for unbounded streaming runs.
func WithSketchOnly() SessionOption {
	return func(o *sessionOptions) { o.sketchOnly = true }
}

// WithTelemetry serves live observability on addr (e.g. "127.0.0.1:9188", or
// "127.0.0.1:0" for an ephemeral port — read it back with TelemetryAddr):
// Prometheus-text /metrics (simulation families plus process self-metrics),
// /healthz, /snapshot (the latest SessionSnapshot as JSON), and
// /debug/pprof/. Metrics are published at epoch boundaries — every
// telemetryPublishEvery completed jobs, wall-clock throttled to one publish
// per telemetryMinPublishGap — and once at Result; scrapes read only the
// published blobs, never live simulation state. The option also enables the
// quantile sketches (without dropping the exact samples — combine with
// WithSketchOnly for constant memory).
func WithTelemetry(addr string) SessionOption {
	return func(o *sessionOptions) { o.telAddr = addr }
}

// telemetryPublishEvery is the default publish cadence in completed jobs,
// checked at the same epoch boundaries as WithAutoCheckpoint.
const telemetryPublishEvery = 500

// telemetryMinPublishGap throttles publishes by wall clock: a fast engine can
// clear 500 jobs in well under a millisecond, and each publish walks the
// O(M) cluster view — without the throttle that walk dominates small-epoch
// runs. The gap bounds publish work at ~4/s regardless of simulation speed.
// Wall time never reaches the engine: a publish only renders already-final
// state, so throttling cannot perturb the bitwise goldens.
const telemetryMinPublishGap = 250 * time.Millisecond

// WithEpochTrace records the last capacity decision epochs (capacity < 1
// defaults to 2048) into a fixed-size ring: per-shard barrier-wait,
// dispatch-commit, lane-run, and view-refresh/encode segments, plus the
// coordinator's merged replay and allocation/GEMM. It works at every shard
// count; at P=1 the one shard runs inline and never waits. Zero steady-state
// allocation. Dump with Session.WriteEpochTrace (Chrome trace-event JSON).
func WithEpochTrace(capacity int) SessionOption {
	return func(o *sessionOptions) {
		if capacity < 1 {
			capacity = 2048
		}
		o.etraceCap = capacity
	}
}

// WithEpochTraceFile is WithEpochTrace plus an automatic dump: Close writes
// the ring to path as Chrome trace-event JSON, so wrapper-owned sessions
// (RunSource, RunStreamed) can record traces too. A failing dump surfaces
// from Close.
func WithEpochTraceFile(path string, capacity int) SessionOption {
	return func(o *sessionOptions) {
		if capacity < 1 {
			capacity = 2048
		}
		o.etraceCap = capacity
		o.etracePath = path
	}
}

// sessionTelemetry is the per-session publishing state behind WithTelemetry
// and WithEpochTraceFile: the HTTP server (nil with only an epoch-trace
// file), the publish cadence, reused snapshot/encode buffers, and the
// wall-clock rate trackers.
type sessionTelemetry struct {
	srv        *telemetry.Server
	every      int64
	last       int64
	snap       SessionSnapshot
	prom       bytes.Buffer
	js         bytes.Buffer
	etracePath string

	lastWall   time.Time
	lastJobs   int64
	lastEvents int64
	jobsRate   float64
	eventsRate float64
}

// TelemetryAddr returns the bound address of the session's telemetry
// endpoint ("" when WithTelemetry was not configured). With "127.0.0.1:0"
// this resolves the ephemeral port actually bound.
func (s *Session) TelemetryAddr() string {
	if s.tel == nil || s.tel.srv == nil {
		return ""
	}
	return s.tel.srv.Addr()
}

// WriteEpochTrace dumps the decision-epoch ring as Chrome trace-event JSON
// (load in chrome://tracing or ui.perfetto.dev). Errors unless the session
// was built with WithEpochTrace / WithEpochTraceFile.
func (s *Session) WriteEpochTrace(w io.Writer) error {
	if s.sr.etrace == nil {
		return fmt.Errorf("hierdrl: epoch trace not enabled (configure WithEpochTrace)")
	}
	return s.sr.etrace.WriteChromeTrace(w)
}

// telTick publishes the metric blobs if the completed-job cadence has passed
// and the wall-clock throttle allows it. Called at the same epoch boundaries
// as autoTick; one branch when telemetry is off or publish-less (epoch-trace
// file only). The clock is only consulted after the (cheap) job-count gate.
func (s *Session) telTick() {
	t := s.tel
	if t == nil || t.srv == nil {
		return
	}
	done := s.cl.Completed()
	if done-t.last < t.every {
		return
	}
	if !t.lastWall.IsZero() && time.Since(t.lastWall) < telemetryMinPublishGap {
		return
	}
	t.last = done
	t.publish(s)
}

// telClose dumps the configured epoch-trace file and shuts the HTTP server
// down. Called once from Close.
func (s *Session) telClose() error {
	t := s.tel
	if t == nil {
		return nil
	}
	var err error
	if t.etracePath != "" {
		err = s.dumpEpochTrace(t.etracePath)
	}
	if t.srv != nil {
		t.srv.Close()
	}
	return err
}

func (s *Session) dumpEpochTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("hierdrl: epoch trace: %w", err)
	}
	if err := s.WriteEpochTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("hierdrl: epoch trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("hierdrl: epoch trace: %w", err)
	}
	return nil
}

// publish refreshes the reused snapshot, rebuilds both blobs, and swaps them
// into the server. Runs on the driving goroutine at an epoch boundary (all
// lanes quiescent), so the snapshot walk is race-free.
func (t *sessionTelemetry) publish(s *Session) {
	s.SnapshotInto(&t.snap)
	now := time.Now()
	fired := s.eventsFired()
	if !t.lastWall.IsZero() {
		if dt := now.Sub(t.lastWall).Seconds(); dt > 0 {
			t.jobsRate = float64(t.snap.Completed-t.lastJobs) / dt
			t.eventsRate = float64(fired-t.lastEvents) / dt
		}
	}
	t.lastWall, t.lastJobs, t.lastEvents = now, t.snap.Completed, fired

	t.buildProm(s)
	rec := buildSnapshotRecord(s, &t.snap)
	t.js.Reset()
	enc := json.NewEncoder(&t.js)
	enc.Encode(&rec) // the record has no unmarshalable fields; cannot fail
	t.srv.Publish(t.prom.Bytes(), bytes.TrimRight(t.js.Bytes(), "\n"))
}

// eventsFired sums fired events across all lanes.
func (s *Session) eventsFired() int64 {
	var n int64
	for i := 0; i < s.sr.p; i++ {
		n += s.cl.Lane(i).Fired()
	}
	return n
}

// promQuantiles emits one summary-style family from a t-digest with optional
// extra labels (`class="short",`-form prefix, empty for none).
func promQuantiles(b *bytes.Buffer, family, labels string, d *telemetry.TDigest) {
	if d.Count() == 0 {
		return
	}
	for _, q := range [3]float64{0.5, 0.95, 0.99} {
		fmt.Fprintf(b, "%s{%squantile=\"%g\"} %g\n", family, labels, q, d.Quantile(q))
	}
	cnt := family + "_count"
	if labels != "" {
		cnt += "{" + labels[:len(labels)-1] + "}" // drop the trailing comma
	}
	fmt.Fprintf(b, "%s %.0f\n", cnt, d.Count())
}

// buildProm renders the simulation metric families as Prometheus text into
// the reused buffer. Process self-metrics (goroutines, heap, GC) are appended
// by the server at scrape time.
func (t *sessionTelemetry) buildProm(s *Session) {
	b := &t.prom
	b.Reset()
	sn := &t.snap

	head := func(name, typ, help string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	head("hiersim_sim_time_seconds", "gauge", "Simulated clock.")
	fmt.Fprintf(b, "hiersim_sim_time_seconds %g\n", sn.Now.Seconds())
	head("hiersim_jobs_ingested_total", "counter", "Jobs accepted by the session.")
	fmt.Fprintf(b, "hiersim_jobs_ingested_total %d\n", sn.Ingested)
	head("hiersim_jobs_completed_total", "counter", "Jobs finished.")
	fmt.Fprintf(b, "hiersim_jobs_completed_total %d\n", sn.Completed)
	head("hiersim_jobs_pending", "gauge", "Ingested jobs not yet dispatched.")
	fmt.Fprintf(b, "hiersim_jobs_pending %d\n", sn.PendingArrivals)
	head("hiersim_jobs_in_system", "gauge", "Jobs queued or running on servers.")
	fmt.Fprintf(b, "hiersim_jobs_in_system %d\n", sn.JobsInSystem)
	head("hiersim_power_watts", "gauge", "Instantaneous cluster power draw.")
	fmt.Fprintf(b, "hiersim_power_watts %g\n", sn.TotalPowerW)
	head("hiersim_energy_kwh", "counter", "Energy integrated since t=0.")
	fmt.Fprintf(b, "hiersim_energy_kwh %g\n", sn.EnergykWh)
	head("hiersim_shards", "gauge", "Event-lane shard count.")
	fmt.Fprintf(b, "hiersim_shards %d\n", s.sr.p)
	head("hiersim_jobs_per_second", "gauge", "Wall-clock job completion rate between publishes.")
	fmt.Fprintf(b, "hiersim_jobs_per_second %g\n", t.jobsRate)
	head("hiersim_events_per_second", "gauge", "Wall-clock simulation event rate between publishes.")
	fmt.Fprintf(b, "hiersim_events_per_second %g\n", t.eventsRate)

	if sk := s.col.Sketches(); sk != nil {
		head("hiersim_latency_seconds", "summary",
			"Completed-job latency quantiles (t-digest; overall and per duration class).")
		promQuantiles(b, "hiersim_latency_seconds", "", sk.MergedLatency())
		for cls := 0; cls < telemetry.NumJobClasses; cls++ {
			promQuantiles(b, "hiersim_latency_seconds",
				fmt.Sprintf("class=%q,", telemetry.JobClassNames[cls]), sk.ClassLatency(cls))
		}
		head("hiersim_wait_seconds", "summary", "Completed-job queue-wait quantiles (t-digest).")
		promQuantiles(b, "hiersim_wait_seconds", "", sk.Wait())
	}

	if classes := s.cl.ServerClasses(); len(classes) > 0 {
		head("hiersim_class_energy_joules", "counter",
			"Energy integrated per heterogeneous server class.")
		lo := 0
		for i, c := range classes {
			hi := lo + c.Count
			name := c.Name
			if name == "" {
				name = fmt.Sprintf("class%d", i)
			}
			fmt.Fprintf(b, "hiersim_class_energy_joules{class=%q} %g\n",
				name, s.cl.RangeEnergyJoules(sn.Now, lo, hi))
			lo = hi
		}
	}

	head("hiersim_servers_down", "gauge", "Servers currently crashed.")
	fmt.Fprintf(b, "hiersim_servers_down %d\n", sn.ServersDown)
	head("hiersim_servers_unavailable", "gauge", "Servers crashed or draining.")
	fmt.Fprintf(b, "hiersim_servers_unavailable %d\n", sn.ServersUnavailable)
	head("hiersim_failures_total", "counter", "Server crash events.")
	fmt.Fprintf(b, "hiersim_failures_total %d\n", sn.Failures)
	head("hiersim_jobs_retried_total", "counter", "Retry-policy requeues.")
	fmt.Fprintf(b, "hiersim_jobs_retried_total %d\n", sn.JobsRetried)
	head("hiersim_jobs_lost_total", "counter", "Jobs dropped by the retry policy.")
	fmt.Fprintf(b, "hiersim_jobs_lost_total %d\n", sn.JobsLost)
	head("hiersim_jobs_migrated_total", "counter", "Drain-time queue migrations.")
	fmt.Fprintf(b, "hiersim_jobs_migrated_total %d\n", sn.JobsMigrated)
	head("hiersim_availability", "gauge", "1 - downtime/(M * elapsed).")
	fmt.Fprintf(b, "hiersim_availability %g\n", sn.Availability)
}

// SnapshotRecord is the flat JSON schema served by the telemetry endpoint's
// /snapshot and printed per line by `hiersim -snap-format json`: the
// SessionSnapshot aggregates (the per-server View excluded) plus the sketch
// quantiles when enabled. Quantile fields are nil until a first job
// completes (JSON cannot carry NaN).
type SnapshotRecord struct {
	TSec            float64 `json:"t_s"`
	Ingested        int64   `json:"ingested"`
	Completed       int64   `json:"completed"`
	PendingArrivals int     `json:"pending_arrivals"`
	JobsInSystem    int     `json:"jobs_in_system"`
	PowerW          float64 `json:"power_w"`
	EnergykWh       float64 `json:"energy_kwh"`
	AvgLatencySec   float64 `json:"avg_latency_s"`

	P50LatencySec *float64 `json:"p50_latency_s,omitempty"`
	P95LatencySec *float64 `json:"p95_latency_s,omitempty"`
	P99LatencySec *float64 `json:"p99_latency_s,omitempty"`

	ServersDown        int     `json:"servers_down"`
	ServersUnavailable int     `json:"servers_unavailable"`
	Failures           int64   `json:"failures"`
	JobsRetried        int64   `json:"jobs_retried"`
	JobsLost           int64   `json:"jobs_lost"`
	JobsMigrated       int64   `json:"jobs_migrated"`
	DomainOutages      int64   `json:"domain_outages"`
	LostWorkSec        float64 `json:"lost_work_s"`
	DegradedSec        float64 `json:"degraded_s"`
	Availability       float64 `json:"availability"`
}

// buildSnapshotRecord flattens a refreshed SessionSnapshot (plus the sketch
// quantiles, when enabled) into the shared JSON schema.
func buildSnapshotRecord(s *Session, sn *SessionSnapshot) SnapshotRecord {
	rec := SnapshotRecord{
		TSec:            sn.Now.Seconds(),
		Ingested:        sn.Ingested,
		Completed:       sn.Completed,
		PendingArrivals: sn.PendingArrivals,
		JobsInSystem:    sn.JobsInSystem,
		PowerW:          sn.TotalPowerW,
		EnergykWh:       sn.EnergykWh,
		AvgLatencySec:   sn.AvgLatencySec,

		ServersDown:        sn.ServersDown,
		ServersUnavailable: sn.ServersUnavailable,
		Failures:           sn.Failures,
		JobsRetried:        sn.JobsRetried,
		JobsLost:           sn.JobsLost,
		JobsMigrated:       sn.JobsMigrated,
		DomainOutages:      sn.DomainOutages,
		LostWorkSec:        sn.LostWorkSec,
		DegradedSec:        sn.DegradedSec,
		Availability:       sn.Availability,
	}
	if sk := s.col.Sketches(); sk != nil {
		if m := sk.MergedLatency(); m.Count() > 0 {
			p50, p95, p99 := m.Quantile(0.50), m.Quantile(0.95), m.Quantile(0.99)
			rec.P50LatencySec, rec.P95LatencySec, rec.P99LatencySec = &p50, &p95, &p99
		}
	}
	return rec
}

// SnapshotJSON refreshes a live snapshot and returns it as one JSON object
// (no trailing newline) in the SnapshotRecord schema — byte-compatible with
// the telemetry endpoint's /snapshot body. Safe wherever Snapshot is.
func (s *Session) SnapshotJSON() ([]byte, error) {
	var sn SessionSnapshot
	if s.tel != nil {
		// Reuse the publisher's snapshot buffers when present.
		s.SnapshotInto(&s.tel.snap)
		rec := buildSnapshotRecord(s, &s.tel.snap)
		return json.Marshal(&rec)
	}
	s.SnapshotInto(&sn)
	rec := buildSnapshotRecord(s, &sn)
	return json.Marshal(&rec)
}
