package hierdrl_test

import (
	"math"
	"testing"

	"hierdrl"
)

// faultCfg builds a baseline configuration with exponential crash/repair
// faults aggressive enough that a few-thousand-job run sees multiple crashes.
func faultCfg(m int) hierdrl.Config {
	cfg := hierdrl.RoundRobin(m)
	cfg.Name = "fault-baseline"
	cfg.Alloc = hierdrl.AllocLeastLoaded
	cfg.Faults = hierdrl.FaultExpCrash
	cfg.MTTFSec = 20000
	cfg.MTTRSec = 600
	cfg.Retry = hierdrl.RetryImmediate
	return cfg
}

// faultBits extends the shared summary fingerprint with every fault-facing
// field — including the correlated/fail-slow/drain telemetry — so two runs
// compare bitwise across both the base measurements and the robustness
// telemetry.
func faultBits(s hierdrl.Summary) [17]uint64 {
	base := summaryBits(s)
	return [17]uint64{
		base[0], base[1], base[2], base[3], base[4], base[5], base[6], base[7],
		math.Float64bits(s.Availability),
		math.Float64bits(s.MTTRSec),
		math.Float64bits(s.LostWorkSec),
		uint64(s.Failures)<<32 | uint64(s.Repairs),
		uint64(s.JobsInterrupted),
		uint64(s.JobsRetried)<<32 | uint64(s.JobsLost),
		uint64(s.JobsMigrated)<<32 | uint64(s.Drains),
		uint64(s.DomainOutages),
		math.Float64bits(s.DegradedSec),
	}
}

// TestFaultInjectionStrict exercises the full crash -> evict -> requeue ->
// complete cycle on the strict tier: with immediate retries every job must
// still finish, and the robustness telemetry must be populated and sane.
func TestFaultInjectionStrict(t *testing.T) {
	cfg := faultCfg(6)
	tr := hierdrl.SyntheticTraceForCluster(3000, 6, 1)

	s, err := hierdrl.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SubmitTrace(tr); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary

	if s.Completed() != int64(tr.Len()) {
		t.Errorf("completed %d of %d jobs", s.Completed(), tr.Len())
	}
	if sum.Failures == 0 || sum.Repairs == 0 {
		t.Errorf("expected crashes at MTTF=%vs over %vs: failures=%d repairs=%d",
			cfg.MTTFSec, sum.DurationSec, sum.Failures, sum.Repairs)
	}
	if !(sum.Availability > 0 && sum.Availability < 1) {
		t.Errorf("availability %v outside (0, 1)", sum.Availability)
	}
	if !(sum.MTTRSec > 0) {
		t.Errorf("MTTRSec %v, want > 0", sum.MTTRSec)
	}
	if sum.JobsInterrupted == 0 || sum.JobsRetried == 0 {
		t.Errorf("expected interrupted work: interrupted=%d retried=%d",
			sum.JobsInterrupted, sum.JobsRetried)
	}
	if sum.JobsLost != 0 {
		t.Errorf("immediate retry lost %d jobs", sum.JobsLost)
	}
	if !(sum.LostWorkSec > 0) {
		t.Errorf("LostWorkSec %v, want > 0 (evicted jobs had started)", sum.LostWorkSec)
	}
}

// TestFaultReproducibleAcrossRuns is the robustness acceptance test: with
// failure clocks armed, two runs at the same shard count P are bitwise
// identical for every P — the failure schedule is a pure function of
// (seed, serverID), never of goroutine interleaving.
func TestFaultReproducibleAcrossRuns(t *testing.T) {
	cfg := faultCfg(8)
	cfg.Retry = hierdrl.RetryBackoff
	tr := hierdrl.SyntheticTraceForCluster(2000, 8, 1)

	for _, p := range []int{1, 2, 4, 8} {
		var ref [17]uint64
		for run := 0; run < 2; run++ {
			res, err := hierdrl.RunWith(cfg, tr, hierdrl.WithShards(p))
			if err != nil {
				t.Fatalf("P=%d run %d: %v", p, run, err)
			}
			bits := faultBits(res.Summary)
			if run == 0 {
				ref = bits
				if res.Summary.Failures == 0 {
					t.Fatalf("P=%d: no failures injected; test is vacuous", p)
				}
				continue
			}
			if bits != ref {
				t.Errorf("P=%d: runs differ bitwise:\n  run0 %v\n  run1 %v", p, ref, bits)
			}
		}
	}
}

// correlatedCfg arms domain-correlated crashes: 4 racks of 2 on 8 servers,
// aggressive enough that whole-rack outages occur within a short run.
func correlatedCfg(m int) hierdrl.Config {
	cfg := faultCfg(m)
	cfg.Name = "fault-correlated"
	cfg.Faults = hierdrl.FaultCorrelatedCrash
	cfg.Domains = hierdrl.EqualDomains(m/2, m)
	cfg.Retry = hierdrl.RetryBackoff
	return cfg
}

// degradeCfg arms fail-slow degradation (no eviction, just slow servers).
func degradeCfg(m int) hierdrl.Config {
	cfg := faultCfg(m)
	cfg.Name = "fault-degrade"
	cfg.Faults = hierdrl.FaultDegrade
	cfg.DegradeFactor = 0.25
	cfg.MTTFSec = 8000
	cfg.MTTRSec = 2000
	return cfg
}

// drainCfg arms rolling maintenance windows frequent enough that several
// servers drain during a short run; pack-fit concentrates queues so drains
// actually find queued jobs to migrate.
func drainCfg(m int) hierdrl.Config {
	cfg := faultCfg(m)
	cfg.Name = "fault-drain"
	cfg.Alloc = hierdrl.AllocPackFit
	cfg.Faults = hierdrl.FaultDrain
	cfg.DrainEverySec = 6000
	cfg.DrainWindowSec = 400
	cfg.Retry = hierdrl.RetryImmediate
	return cfg
}

// TestNewFaultModelsReproducibleAcrossRuns extends the robustness acceptance
// test to the three topology-aware fault classes: for each of
// correlated-crash, degrade, and maintenance-drain, two runs at every shard
// count P are bitwise identical, and each model's distinctive telemetry is
// actually exercised (the runs are not vacuous).
func TestNewFaultModelsReproducibleAcrossRuns(t *testing.T) {
	tr := hierdrl.SyntheticTraceForCluster(2000, 8, 1)
	cases := []struct {
		name  string
		cfg   hierdrl.Config
		check func(t *testing.T, p int, s hierdrl.Summary)
	}{
		{"correlated-crash", correlatedCfg(8), func(t *testing.T, p int, s hierdrl.Summary) {
			if s.Failures == 0 {
				t.Fatalf("P=%d: no correlated crashes injected; test is vacuous", p)
			}
			if s.DomainOutages == 0 {
				t.Errorf("P=%d: correlated crashes produced no whole-domain outages", p)
			}
		}},
		{"degrade", degradeCfg(8), func(t *testing.T, p int, s hierdrl.Summary) {
			if s.Failures == 0 {
				t.Fatalf("P=%d: no degrade windows opened; test is vacuous", p)
			}
			if !(s.DegradedSec > 0) {
				t.Errorf("P=%d: DegradedSec %v, want > 0", p, s.DegradedSec)
			}
			if s.JobsInterrupted != 0 || s.JobsLost != 0 || s.LostWorkSec != 0 {
				t.Errorf("P=%d: fail-slow must not evict: interrupted=%d lost=%d lostWork=%v",
					p, s.JobsInterrupted, s.JobsLost, s.LostWorkSec)
			}
		}},
		{"maintenance-drain", drainCfg(8), func(t *testing.T, p int, s hierdrl.Summary) {
			if s.Drains == 0 {
				t.Fatalf("P=%d: no maintenance windows opened; test is vacuous", p)
			}
			if s.JobsInterrupted != 0 {
				t.Errorf("P=%d: planned drains interrupted %d running jobs", p, s.JobsInterrupted)
			}
			if s.JobsMigrated < 0 || s.JobsLost != 0 {
				t.Errorf("P=%d: migrated=%d lost=%d", p, s.JobsMigrated, s.JobsLost)
			}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range []int{1, 2, 4, 8} {
				var ref [17]uint64
				for run := 0; run < 2; run++ {
					res, err := hierdrl.RunWith(tc.cfg, tr, hierdrl.WithShards(p))
					if err != nil {
						t.Fatalf("P=%d run %d: %v", p, run, err)
					}
					bits := faultBits(res.Summary)
					if run == 0 {
						ref = bits
						tc.check(t, p, res.Summary)
						continue
					}
					if bits != ref {
						t.Errorf("P=%d: runs differ bitwise:\n  run0 %v\n  run1 %v", p, ref, bits)
					}
				}
			}
		})
	}
}

// TestMaintenanceDrainMigratesQueue forces queued work onto draining servers
// (pack-fit concentrates load, short drain period) and checks the graceful
// path end to end: queued jobs migrate rather than being interrupted, every
// job still completes, and the migrated/interrupted split stays disjoint.
func TestMaintenanceDrainMigratesQueue(t *testing.T) {
	cfg := drainCfg(4)
	cfg.DrainEverySec = 3000
	tr := hierdrl.SyntheticTraceForCluster(4000, 3, 1) // overload 4 servers with a 3-server rate

	s, err := hierdrl.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SubmitTrace(tr); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary
	if s.Completed() != int64(tr.Len()) {
		t.Errorf("completed %d of %d jobs", s.Completed(), tr.Len())
	}
	if sum.Drains == 0 {
		t.Fatal("no maintenance windows opened; test is vacuous")
	}
	if sum.JobsMigrated == 0 {
		t.Errorf("overloaded drain run migrated no queued jobs (drains=%d)", sum.Drains)
	}
	if sum.JobsInterrupted != 0 {
		t.Errorf("drains interrupted %d running jobs; planned maintenance must let them finish",
			sum.JobsInterrupted)
	}
	if sum.JobsLost != 0 || sum.LostWorkSec != 0 {
		t.Errorf("graceful drain lost jobs/work: lost=%d lostWork=%v", sum.JobsLost, sum.LostWorkSec)
	}
	if !(sum.Availability > 0 && sum.Availability < 1) {
		t.Errorf("availability %v outside (0, 1) despite %d drains", sum.Availability, sum.Drains)
	}
}

// TestDegradeStretchesLatency pins the fail-slow semantics against a
// fault-free control: identical workload and policy, so any latency growth
// is attributable to degraded service speed — and the fault-free run must
// report zero extended-fault telemetry.
func TestDegradeStretchesLatency(t *testing.T) {
	tr := hierdrl.SyntheticTraceForCluster(3000, 6, 1)
	base := faultCfg(6)
	base.Faults = hierdrl.FaultNone

	ctl, err := hierdrl.Run(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	deg, err := hierdrl.Run(degradeCfg(6), tr)
	if err != nil {
		t.Fatal(err)
	}
	c, d := ctl.Summary, deg.Summary
	if c.DegradedSec != 0 || c.JobsMigrated != 0 || c.DomainOutages != 0 || c.Drains != 0 {
		t.Errorf("fault-free run reports fault telemetry: %+v", c)
	}
	if !(d.DegradedSec > 0) {
		t.Fatalf("DegradedSec %v, want > 0", d.DegradedSec)
	}
	if !(d.AccLatencySec > c.AccLatencySec) {
		t.Errorf("degraded run accumulated less latency than the control: %v <= %v",
			d.AccLatencySec, c.AccLatencySec)
	}
	if d.Availability != 1 {
		t.Errorf("fail-slow availability %v, want exactly 1 (servers never leave service)",
			d.Availability)
	}
}

// alwaysDrop is a registry-registered retry policy that refuses every
// requeue, so each interruption becomes a lost job.
type alwaysDrop struct{}

func (alwaysDrop) Name() string { return "always-drop" }
func (alwaysDrop) Retry(now float64, j hierdrl.Job, attempt int) (float64, bool) {
	return 0, false
}

// TestRegisteredRetryPolicy drives the crash path through an externally
// registered policy and checks the loss accounting closes: every ingested
// job either completes or is counted lost, and nothing retries.
func TestRegisteredRetryPolicy(t *testing.T) {
	hierdrl.RegisterRetryPolicy("always-drop", func(cfg *hierdrl.Config) (hierdrl.RetryPolicy, error) {
		return alwaysDrop{}, nil
	})
	cfg := faultCfg(6)
	cfg.Retry = "always-drop"
	tr := hierdrl.SyntheticTraceForCluster(3000, 6, 1)

	for _, p := range []int{1, 4} {
		s, err := hierdrl.NewSession(cfg, hierdrl.WithShards(p))
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if err := s.SubmitTrace(tr); err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if err := s.Drain(); err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		res, err := s.Result()
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		sum := res.Summary
		if sum.JobsLost == 0 {
			t.Errorf("P=%d: no jobs lost under always-drop with %d failures", p, sum.Failures)
		}
		if sum.JobsLost != sum.JobsInterrupted {
			t.Errorf("P=%d: lost %d != interrupted %d", p, sum.JobsLost, sum.JobsInterrupted)
		}
		if sum.JobsRetried != 0 {
			t.Errorf("P=%d: retried %d under always-drop", p, sum.JobsRetried)
		}
		if got := s.Completed() + sum.JobsLost; got != s.Ingested() {
			t.Errorf("P=%d: completed %d + lost %d != ingested %d",
				p, s.Completed(), sum.JobsLost, s.Ingested())
		}
		s.Close()
	}
}

// TestDRLDispatchMonotoneUnderFaultRequeues pins the sharded engine's
// monotone-decision clamp. A drain (or crash) can hand back several queued
// jobs at one instant t0 while an arrival at t1 > t0 is already allocated
// but not yet committed; the first migrated job then dispatches at t1 and
// the next would — without the clamp — dispatch back at its nominal t0,
// driving the DRL reward integrator backwards (panic: "time went
// backwards"). The DRL allocator over the fixed-timeout tier with a short
// staggered drain reproduces that interleaving at P >= 2; the same config
// must also stay bitwise reproducible run to run.
func TestDRLDispatchMonotoneUnderFaultRequeues(t *testing.T) {
	mkCfg := func() hierdrl.Config {
		cfg := hierdrl.FixedTimeoutBaseline(16, 60)
		cfg.Seed = 1
		cfg.Faults = hierdrl.FaultDrain
		cfg.DrainEverySec = 7200
		cfg.DrainWindowSec = 300
		cfg.Retry = hierdrl.RetryImmediate
		return cfg
	}
	tr := hierdrl.SyntheticTraceForCluster(3000, 16, 1)
	for _, p := range []int{2, 4} {
		var ref [17]uint64
		for run := 0; run < 2; run++ {
			res, err := hierdrl.RunWith(mkCfg(), tr, hierdrl.WithShards(p))
			if err != nil {
				t.Fatalf("P=%d run %d: %v", p, run, err)
			}
			if res.Summary.Drains == 0 {
				t.Fatalf("P=%d: no drains fired; test is vacuous", p)
			}
			bits := faultBits(res.Summary)
			if run == 0 {
				ref = bits
			} else if bits != ref {
				t.Errorf("P=%d: run %d summary diverged:\n  run0 %v\n  run%d %v", p, run, ref, run, bits)
			}
		}
	}
}

// TestFaultRunsShardInvariant pins that exp-crash runs are bitwise the same
// at every shard count, for a state-blind and a learning allocator under
// both immediate and backoff retries. Every P runs the epoch engine, where a
// crash-evicted job's requeue dispatches at max(crash_t + delay, the first
// decision epoch after the eviction is replayed), so the dispatch instant no
// longer depends on how the cluster is partitioned.
func TestFaultRunsShardInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve fault runs; run without -short")
	}
	m := 20
	tr := hierdrl.SyntheticTraceForCluster(1500, m, 1)
	warm := hierdrl.SyntheticTraceForCluster(300, m, 2)
	for _, mk := range []func(int) hierdrl.Config{hierdrl.RoundRobin, hierdrl.DRLOnly} {
		for _, retry := range []hierdrl.RetryKind{hierdrl.RetryImmediate, hierdrl.RetryBackoff} {
			cfg := mk(m)
			cfg.Faults = hierdrl.FaultExpCrash
			cfg.MTTFSec = 20000
			cfg.MTTRSec = 600
			cfg.Retry = retry
			cfg.WarmupTrace = warm
			var ref [17]uint64
			for _, p := range []int{1, 2, 3} {
				res, err := hierdrl.RunWith(cfg, tr, hierdrl.WithShards(p))
				if err != nil {
					t.Fatalf("%s/%s P=%d: %v", cfg.Name, retry, p, err)
				}
				bits := faultBits(res.Summary)
				if p == 1 {
					ref = bits
					if res.Summary.JobsRetried == 0 {
						t.Fatalf("%s/%s: no retries; test is vacuous", cfg.Name, retry)
					}
					continue
				}
				if bits != ref {
					t.Errorf("%s/%s: P=%d differs from P=1:\n  P=1 %v\n  P=%d %v", cfg.Name, retry, p, ref, p, bits)
				}
			}
		}
	}
}
