package main

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an untraced run reports. Jobs that fail or runs
// that fail a correctness check are reported in the result line's "failed"
// count, not as a metric, because a metric must never read 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"jobs_per_s", "jobs/s", "higher", 0.24},
	{"peak_rss_mb", "MB", "lower", 0.1},
	{"energy_kwh", "kWh", "lower", 0.2},
	{"latency_avg_s", "sim_s", "lower", 0.05},
	{"latency_p99_s", "sim_s", "lower", 0.15},
}

// perLayer are the metrics a traced run reports; each is reported on every
// workload, reading 0 where the layer is bypassed (shard.* in the strict
// tier, fault.* without faults, telemetry.* without the scraper).
var perLayer = []metricDef{
	{"hierdrl.new_session_s", "s", "lower", 0},
	{"hierdrl.submit_s", "s", "lower", 0},
	{"hierdrl.advance_s", "s", "lower", 0},
	{"hierdrl.result_s", "s", "lower", 0},
	{"hierdrl.steps", "count", "lower", 0},
	{"hierdrl.dispatch_steps", "count", "lower", 0},
	{"hierdrl.dispatch_step_s", "s", "lower", 0},
	{"hierdrl.dispatch_step_p50_ns", "ns", "lower", 0},
	{"hierdrl.dispatch_step_p99_ns", "ns", "lower", 0},
	{"hierdrl.complete_steps", "count", "lower", 0},
	{"hierdrl.complete_step_s", "s", "lower", 0},
	{"hierdrl.complete_step_p50_ns", "ns", "lower", 0},
	{"hierdrl.complete_step_p99_ns", "ns", "lower", 0},
	{"hierdrl.other_steps", "count", "lower", 0},
	{"hierdrl.other_step_s", "s", "lower", 0},
	{"global.warmup_s", "s", "lower", 0},
	{"global.dispatch_self_s", "s", "lower", 0},
	{"local.build_s", "s", "lower", 0},
	{"local.on_idle_calls", "count", "lower", 0},
	{"local.on_idle_self_s", "s", "lower", 0},
	{"local.on_arrival_calls", "count", "lower", 0},
	{"local.on_arrival_self_s", "s", "lower", 0},
	{"local.observe_calls", "count", "lower", 0},
	{"local.observe_self_s", "s", "lower", 0},
	{"lstm.observe_calls", "count", "lower", 0},
	{"lstm.observe_s", "s", "lower", 0},
	{"lstm.predict_calls", "count", "lower", 0},
	{"lstm.predict_s", "s", "lower", 0},
	{"shard.barrier_wait_s", "s", "lower", 0},
	{"shard.commit_s", "s", "lower", 0},
	{"shard.run_s", "s", "lower", 0},
	{"shard.refresh_s", "s", "lower", 0},
	{"shard.replay_s", "s", "lower", 0},
	{"shard.alloc_s", "s", "lower", 0},
	{"cluster.wakeups", "count", "lower", 0},
	{"cluster.shutdowns", "count", "lower", 0},
	{"cluster.mode_transitions", "count", "lower", 0},
	{"fault.failures", "count", "lower", 0},
	{"fault.repairs", "count", "lower", 0},
	{"fault.jobs_interrupted", "count", "lower", 0},
	{"fault.jobs_retried", "count", "lower", 0},
	{"fault.domain_outages", "count", "lower", 0},
	{"fault.lost_work_s", "sim_s", "lower", 0},
	{"telemetry.scrapes", "count", "higher", 0},
	{"telemetry.scrape_p50_us", "us", "lower", 0},
	{"telemetry.scrape_max_us", "us", "lower", 0},
	{"runtime.allocs_per_job", "allocs/job", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_s", "s", "lower", 0},
	{"workload.gen_s", "s", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
}
