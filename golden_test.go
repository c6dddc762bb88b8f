package hierdrl_test

import (
	"math"
	"runtime"
	"testing"

	"hierdrl"
)

// The Seed=1 metric fingerprint of the three-system comparison at a reduced
// operating point (M=6, 500 jobs, 200 warmup jobs). These are the exact
// float64 bit patterns produced by the seed implementation; every
// performance PR must reproduce them bit for bit — the whole optimization
// discipline of this repo is "faster, not different". Regenerate only when
// the simulated dynamics are changed intentionally.
var goldenM6 = map[string][3]uint64{ // policy -> {energy kWh, acc latency s, avg power W}
	"round-robin":  {0x400f46ea46e237cd, 0x411db374cbf7d334, 0x4082dcbb00067e0d},
	"drl-only":     {0x40015ac371791acb, 0x411db9f11e487340, 0x4074e7b5aae93b61},
	"hierarchical": {0x40010363d9ce3ce8, 0x411dba2d37a39144, 0x40746a508dddbfa6},
}

// TestSeed1MetricsBitwiseGolden asserts the acceptance criterion of the
// event-engine rewrite: per-policy energy, accumulated latency, and average
// power at a fixed seed are bitwise identical to the pre-rewrite output.
func TestSeed1MetricsBitwiseGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full three-system comparison is slow; run without -short")
	}
	sc := hierdrl.Scale{Jobs: 500, WarmupJobs: 200, Seed: 1, ClusterM: 6}
	cmp, err := hierdrl.RunComparison(6, sc, 0)
	if err != nil {
		t.Fatalf("RunComparison: %v", err)
	}
	for _, s := range cmp.Rows() {
		want, ok := goldenM6[s.Policy]
		if !ok {
			t.Fatalf("unexpected policy %q", s.Policy)
		}
		got := [3]uint64{
			math.Float64bits(s.EnergykWh),
			math.Float64bits(s.AccLatencySec),
			math.Float64bits(s.AvgPowerW),
		}
		// The golden bits were recorded on amd64; other architectures may
		// round math.Exp/Tanh differently, so they get a tolerance check
		// while amd64 stays exact.
		if runtime.GOARCH == "amd64" {
			if got != want {
				t.Errorf("%s: metrics diverged from golden bits:\n got %016x %016x %016x\nwant %016x %016x %016x",
					s.Policy, got[0], got[1], got[2], want[0], want[1], want[2])
			}
			continue
		}
		ref := [3]float64{
			math.Float64frombits(want[0]),
			math.Float64frombits(want[1]),
			math.Float64frombits(want[2]),
		}
		vals := [3]float64{s.EnergykWh, s.AccLatencySec, s.AvgPowerW}
		for i := range vals {
			if math.Abs(vals[i]-ref[i]) > 1e-6*(1+math.Abs(ref[i])) {
				t.Errorf("%s: metric %d = %v want ~%v", s.Policy, i, vals[i], ref[i])
			}
		}
	}
}

// goldenCheckpointsM6 pins the Fig. 8/9 checkpoint series at P=1
// (CheckpointEvery 100 over 1000 jobs on M=6, Seed 1, 200 warmup jobs):
// {jobs, time, energy kWh, acc latency s} as float64 bits. Every point is
// stamped at the completion instant of its 100th job: the engine stops the
// lane right after that completion and records the checkpoint there, the
// same series a per-event engine produces. Stamping at the next epoch
// barrier instead moves the time and energy of several points.
var goldenCheckpointsM6 = map[string][10][4]uint64{
	"round-robin": {
		{100, 0x40b94b9d7d8f378f, 0x3ff0cc67f917baaa, 0x40f316df94615f04},
		{200, 0x40c3ad4d4ea24b6a, 0x3ffa84bd04cafc9c, 0x410440666622c18a},
		{300, 0x40cb0439f65beee0, 0x40027e139c96a278, 0x41100f88c1f970dc},
		{400, 0x40d11382fcc38e0d, 0x40079adfbc387240, 0x41151b6c4afdc2a0},
		{500, 0x40d438ec52ea3d94, 0x400c2acb949ef0d5, 0x411bac183406cd56},
		{600, 0x40d754df591aad44, 0x40106b0155c1452c, 0x412107733177a207},
		{700, 0x40da53de02e89738, 0x4012a300e3f9de9a, 0x41242b1da6e6d79c},
		{800, 0x40dd26a1986c5d8b, 0x4014b8fd45614987, 0x41270d17dccd8a87},
		{900, 0x40df7c8b6dd90e74, 0x40168680a7ca47c4, 0x4129e2a7d190f846},
		{1000, 0x40e315267bf0ab16, 0x401b025d425bc386, 0x412df723c75d19a4},
	},
	"hierarchical": {
		{100, 0x40b94b9d7d8f378f, 0x3fd72d44698adae5, 0x40f31830c2b12dff},
		{200, 0x40c3ad4d4ea24b6a, 0x3fe6f1e2a60b35e0, 0x410444cefd4aa908},
		{300, 0x40cb0439f65beee0, 0x3ff29774a2866a61, 0x4110146a38994d16},
		{400, 0x40d11382fcc38e0d, 0x3ff9dbff4bc45162, 0x411522a5c19d9eda},
		{500, 0x40d438ec52ea3d94, 0x40004ceed3cf1ae3, 0x411bb4b9aaa6a990},
		{600, 0x40d75c5f591aad44, 0x4003c012115e6074, 0x41210c3becc79024},
		{700, 0x40da53de02e89738, 0x40068f5290d4558c, 0x4124305e6236c5b8},
		{800, 0x40dd26a1986c5d8b, 0x400a0cae7d9bf614, 0x412712d0981d78a3},
		{900, 0x40df7c8b6dd90e74, 0x400d30008135df84, 0x4129e97a420ec0a6},
		{1000, 0x40e315267bf0ab16, 0x401143bc45dada74, 0x412dfe3237dae204},
	},
}

// TestCheckpointSeriesP1Golden holds the P=1 checkpoint series to the
// completion-instant bits above.
func TestCheckpointSeriesP1Golden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("checkpoint golden bits were recorded on amd64")
	}
	tr := hierdrl.SyntheticTraceForCluster(1000, 6, 1)
	warm := hierdrl.SyntheticTraceForCluster(200, 6, 2)
	for _, cfg := range []hierdrl.Config{hierdrl.RoundRobin(6), hierdrl.Hierarchical(6)} {
		cfg.Seed = 1
		cfg.CheckpointEvery = 100
		cfg.WarmupTrace = warm
		res, err := hierdrl.Run(cfg, tr)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		want := goldenCheckpointsM6[cfg.Name]
		if len(res.Checkpoints) != len(want) {
			t.Fatalf("%s: %d checkpoints, want %d", cfg.Name, len(res.Checkpoints), len(want))
		}
		for i, cp := range res.Checkpoints {
			got := [4]uint64{
				uint64(cp.Jobs),
				math.Float64bits(float64(cp.Time)),
				math.Float64bits(cp.EnergykWh),
				math.Float64bits(cp.AccLatencySec),
			}
			if got != want[i] {
				t.Errorf("%s checkpoint %d:\n got %d %016x %016x %016x\nwant %d %016x %016x %016x",
					cfg.Name, i, got[0], got[1], got[2], got[3], want[i][0], want[i][1], want[i][2], want[i][3])
			}
		}
	}
}
