package main

import (
	"fmt"
	"time"

	"hierdrl"
)

// Workload sizes. A run repeats whole passes for --seconds, so each pass is
// kept short enough that a run holds several of them (medians over passes
// keep the end-to-end metrics steady on a shared two-core machine).
const (
	paperM       = 30
	paperJobs    = 19000 // 4x hierdrl.BenchScale(30), a fifth of the paper's 95,000
	paperWarmup  = 1000
	scaleM       = hierdrl.ScaleM
	scaleJobs    = 200_000
	outageM      = 1000
	outageJobs   = 300_000
	outageSeed   = 1
	streamChunk  = 1 << 15 // RunSource's chunk: bounded pending queue
	scrapePeriod = 250 * time.Millisecond
)

// workload is one set of inputs the benchmark drives through the public
// Session API. Jobs are generated in the benchmark process; the program only
// receives them through SubmitTrace.
type workload struct {
	name string
	why  string
	// shards is the Session's execution tier (WithShards).
	shards int
	// stream submits the jobs in streamChunk slices and advances the clock
	// to each slice's last arrival before the next (as RunSource does);
	// otherwise the whole trace is submitted at once (as Run does).
	stream bool
	// scrape runs a /metrics scraper beside the simulation.
	scrape bool
	// inputs builds the run configuration (warmup trace included) and the
	// measured jobs for a seed.
	inputs func(seed int64) (hierdrl.Config, []hierdrl.Job, error)
	// opts are the workload's session options.
	opts func() []hierdrl.SessionOption
}

var workloads = []*workload{
	{
		name:   "paper-hier",
		why:    "paper operating point M=30: global DRL inference+training and LSTM BPTT dominate; strict tier, no faults or telemetry",
		shards: 1,
		inputs: func(seed int64) (hierdrl.Config, []hierdrl.Job, error) {
			return paperInputs(paperJobs, paperWarmup, seed)
		},
	},
	{
		name:   "scale-p1",
		why:    "10k servers, least-loaded, strict tier: event engine, cluster index and 10k local RL/LSTM replicas dominate; bypasses global DRL and shards",
		shards: 1,
		stream: true,
		inputs: func(seed int64) (hierdrl.Config, []hierdrl.Job, error) {
			return scaleInputs(scaleM, scaleJobs, seed)
		},
	},
	{
		name:   "scale-p2",
		why:    "scale-p1's inputs at WithShards(2): adds the shard barrier, replay and merger; must equal scale-p1 bitwise",
		shards: 2,
		stream: true,
		inputs: func(seed int64) (hierdrl.Config, []hierdrl.Job, error) {
			return scaleInputs(scaleM, scaleJobs, seed)
		},
	},
	{
		name:   "outage-live",
		why:    "rack-outage at M=1000, P=2: evictions and backoff requeues undo dispatches while a /metrics scraper reads live telemetry at 4 Hz",
		shards: 2,
		stream: true,
		scrape: true,
		inputs: func(seed int64) (hierdrl.Config, []hierdrl.Job, error) {
			return outageInputs(outageM, outageJobs, seed)
		},
		// WithTelemetry records the latency sketches and merges them at
		// every publish. WithSketchOnly is left out: under it the reported
		// p99 depends on when the wall-clock-throttled publish flushes the
		// digests, so it differs run to run and could not be checked.
		opts: func() []hierdrl.SessionOption {
			return []hierdrl.SessionOption{hierdrl.WithTelemetry("127.0.0.1:0")}
		},
	},
}

func paperInputs(jobs, warmup int, seed int64) (hierdrl.Config, []hierdrl.Job, error) {
	cfg := hierdrl.Hierarchical(paperM)
	cfg.Seed = seed
	cfg.WarmupTrace = hierdrl.SyntheticTraceForCluster(warmup, paperM, seed+1000)
	return cfg, hierdrl.SyntheticTraceForCluster(jobs, paperM, seed).Jobs, nil
}

func scaleInputs(m, jobs int, seed int64) (hierdrl.Config, []hierdrl.Job, error) {
	cfg := hierdrl.ScaleSim(m)
	cfg.Seed = seed
	src, err := hierdrl.ScaleStream(jobs, m, seed)
	if err != nil {
		return hierdrl.Config{}, nil, err
	}
	return cfg, collect(src, jobs), nil
}

func outageInputs(m, jobs int, seed int64) (hierdrl.Config, []hierdrl.Job, error) {
	sc, ok := hierdrl.LookupScenario("rack-outage")
	if !ok {
		return hierdrl.Config{}, nil, fmt.Errorf("scenario rack-outage not registered")
	}
	sc = sc.Scaled(m, jobs)
	cfg := hierdrl.ScaleSim(m)
	cfg.Name = sc.Name
	// The config seed, which draws the rack crash and repair clocks, stays
	// fixed: every run replays the same outage plan (15 rack outages, 3000
	// server failures at full size) against the jobs drawn from seed. With
	// the clocks drawn from seed too, runs saw 6 to 15 outages and
	// jobs_per_s moved by a quarter between seeds.
	cfg.Seed = outageSeed
	sc.ApplyTo(&cfg)
	src, err := sc.Source(seed)
	if err != nil {
		return hierdrl.Config{}, nil, err
	}
	return cfg, collect(src, jobs), nil
}

func collect(src hierdrl.JobSource, n int) []hierdrl.Job {
	jobs := make([]hierdrl.Job, 0, n)
	for {
		j, ok := src.Next()
		if !ok {
			return jobs
		}
		jobs = append(jobs, j)
	}
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// sessionOptions returns the options every pass of w uses.
func (w *workload) sessionOptions() []hierdrl.SessionOption {
	opts := []hierdrl.SessionOption{hierdrl.WithShards(w.shards)}
	if w.opts != nil {
		opts = append(opts, w.opts()...)
	}
	return opts
}

// chunks splits jobs into the slices one pass submits.
func (w *workload) chunks(jobs []hierdrl.Job) [][]hierdrl.Job {
	if !w.stream {
		return [][]hierdrl.Job{jobs}
	}
	var out [][]hierdrl.Job
	for len(jobs) > streamChunk {
		out = append(out, jobs[:streamChunk])
		jobs = jobs[streamChunk:]
	}
	return append(out, jobs)
}
