package cluster

import (
	"math"
	"testing"

	"hierdrl/internal/mat"
	"hierdrl/internal/sim"
)

type shardTestDPM struct{}

// adHocTestDPM sleeps the instant a server idles (transition-stream tests).
type adHocTestDPM struct{}

func (adHocTestDPM) OnIdle(sim.Time, *Server) float64        { return 0 }
func (adHocTestDPM) OnArrival(sim.Time, *Server, PowerState) {}
func (adHocTestDPM) Observe(sim.Time, float64, int)          {}

func (shardTestDPM) OnIdle(sim.Time, *Server) float64        { return math.Inf(1) }
func (shardTestDPM) OnArrival(sim.Time, *Server, PowerState) {}
func (shardTestDPM) Observe(sim.Time, float64, int)          {}

func newShardedForTest(t *testing.T, m, p int) (*Cluster, []*sim.Simulator) {
	t.Helper()
	lanes := make([]*sim.Simulator, p)
	for i := range lanes {
		lanes[i] = sim.New()
	}
	cfg := DefaultConfig(m)
	cfg.Server.InitialState = StateActive
	c, err := NewSharded(cfg, lanes, func(int) DPMPolicy { return shardTestDPM{} })
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	return c, lanes
}

// TestShardedPartition asserts the contiguous balanced partition and the
// server->shard mapping.
func TestShardedPartition(t *testing.T) {
	c, _ := newShardedForTest(t, 10, 3)
	if c.Shards() != 3 {
		t.Fatalf("Shards() = %d", c.Shards())
	}
	covered := 0
	prevHi := 0
	for s := 0; s < c.Shards(); s++ {
		lo, hi := c.ShardRange(s)
		if lo != prevHi {
			t.Fatalf("shard %d range [%d,%d) not contiguous with previous hi %d", s, lo, hi, prevHi)
		}
		if n := hi - lo; n != 3 && n != 4 {
			t.Fatalf("shard %d has %d servers, want 3 or 4", s, n)
		}
		for i := lo; i < hi; i++ {
			if c.ShardOf(i) != s {
				t.Fatalf("ShardOf(%d) = %d, want %d", i, c.ShardOf(i), s)
			}
		}
		covered += hi - lo
		prevHi = hi
	}
	if covered != 10 {
		t.Fatalf("partition covers %d servers, want 10", covered)
	}
	if _, err := NewSharded(DefaultConfig(2), make([]*sim.Simulator, 3), func(int) DPMPolicy { return shardTestDPM{} }); err == nil {
		t.Fatal("NewSharded with more lanes than servers did not fail")
	}
}

// driveSharded submits a deterministic job pattern across the shards and
// steps the lanes to completion, interleaving lane work the way the epoch
// loop does (all lanes to a horizon, then further submits).
func driveSharded(t *testing.T, c *Cluster, lanes []*sim.Simulator, rng *mat.RNG, jobs int) {
	t.Helper()
	arrival := 0.0
	for id := 0; id < jobs; id++ {
		arrival += rng.Exponential(0.5)
		for _, ln := range lanes {
			ln.RunBefore(sim.Time(arrival))
		}
		target := rng.Intn(c.M())
		lane := lanes[c.ShardOf(target)]
		lane.AdvanceTo(sim.Time(arrival))
		cpu := 0.05 + 0.3*rng.Float64()
		c.Submit(&Job{
			ID:       id,
			Arrival:  sim.Time(arrival),
			Duration: 1 + rng.Float64()*20,
			Req:      Resources{cpu, cpu * 0.8, cpu * 0.5},
			Server:   -1,
		}, target)
	}
	for _, ln := range lanes {
		ln.RunBefore(sim.Time(math.MaxFloat64))
	}
}

// TestShardedAggregatesMatchStrict drives the same deterministic workload
// through a 1-shard (strict) and a 4-shard cluster and asserts the final
// aggregates agree — integers exactly, FP reductions to tight tolerance —
// and that every incremental invariant holds on both.
func TestShardedAggregatesMatchStrict(t *testing.T) {
	strict, strictLanes := newShardedForTest(t, 13, 1)
	sharded, shardLanes := newShardedForTest(t, 13, 4)
	sharded.EnableLoadIndex()
	strict.EnableLoadIndex()

	driveSharded(t, strict, strictLanes, mat.NewRNG(42), 400)
	driveSharded(t, sharded, shardLanes, mat.NewRNG(42), 400)

	strict.InvariantCheck()
	sharded.InvariantCheck()

	if a, b := strict.Completed(), sharded.Completed(); a != b {
		t.Fatalf("completed %d vs %d", a, b)
	}
	if a, b := strict.JobsInSystem(), sharded.JobsInSystem(); a != b {
		t.Fatalf("jobs in system %d vs %d", a, b)
	}
	if a, b := strict.TotalPower(), sharded.TotalPower(); !closeRel(a, b, 1e-9) {
		t.Fatalf("power %v vs %v", a, b)
	}
	if a, b := strict.ReliabilityObj(), sharded.ReliabilityObj(); !closeRel(a, b, 1e-9) {
		t.Fatalf("reliability %v vs %v", a, b)
	}
	now := sim.Time(1e9)
	if a, b := strict.TotalEnergyJoules(now), sharded.TotalEnergyJoules(now); a != b {
		// Energy is a per-server sum in ascending order on both sides:
		// identical per-server histories make it bitwise equal.
		t.Fatalf("energy %v vs %v", a, b)
	}
	if a, b := strict.LeastCommitted(), sharded.LeastCommitted(); a != b {
		t.Fatalf("least committed %d vs %d", a, b)
	}
}

// TestAsyncMergerBitwise drives identical workloads through a one-shard
// cluster (its live aggregates read at every change point) and a 3-shard
// cluster (logged changes, Merger replay at barriers) and asserts the
// replayed observation stream — (t, power, jobs, reliability) in merged time
// order — is bitwise identical to the one-shard one. This is the exactness
// contract that keeps sharded DRL runs equal to one-shard ones.
func TestAsyncMergerBitwise(t *testing.T) {
	type obs struct {
		t     sim.Time
		power float64
		jobs  int
		reli  float64
	}

	var strictFeed []obs
	strict, strictLanes := newShardedForTest(t, 12, 1)
	onEveryChange(strict, func(tm sim.Time) {
		strictFeed = append(strictFeed, obs{tm, strict.TotalPower(), strict.JobsInSystem(), strict.ReliabilityObj()})
	})
	driveSharded(t, strict, strictLanes, mat.NewRNG(7), 300)

	var mergedFeed []obs
	async, asyncLanes := newShardedForTest(t, 12, 3)
	m := NewMerger(async)
	m.OnChange = func(tm sim.Time, power float64, jobs int, reli float64) {
		mergedFeed = append(mergedFeed, obs{tm, power, jobs, reli})
	}
	// Replay with periodic barriers: drain the logs every few submissions,
	// as the epoch loop does.
	rng := mat.NewRNG(7)
	arrival := 0.0
	for id := 0; id < 300; id++ {
		arrival += rng.Exponential(0.5)
		for _, ln := range asyncLanes {
			ln.RunBefore(sim.Time(arrival))
		}
		target := rng.Intn(async.M())
		asyncLanes[async.ShardOf(target)].AdvanceTo(sim.Time(arrival))
		cpu := 0.05 + 0.3*rng.Float64()
		async.Submit(&Job{
			ID: id, Arrival: sim.Time(arrival), Duration: 1 + rng.Float64()*20,
			Req: Resources{cpu, cpu * 0.8, cpu * 0.5}, Server: -1,
		}, target)
		if id%5 == 0 {
			async.DrainChanges(m)
			async.DrainDones(func(sim.Time, *Job) {})
		}
	}
	for _, ln := range asyncLanes {
		ln.RunBefore(sim.Time(math.MaxFloat64))
	}
	async.DrainChanges(m)
	async.DrainDones(func(sim.Time, *Job) {})
	m.InvariantCheck(async)

	if len(strictFeed) != len(mergedFeed) {
		t.Fatalf("feed lengths differ: strict %d merged %d", len(strictFeed), len(mergedFeed))
	}
	for i := range strictFeed {
		a, b := strictFeed[i], mergedFeed[i]
		if a.t != b.t || a.jobs != b.jobs ||
			math.Float64bits(a.power) != math.Float64bits(b.power) ||
			math.Float64bits(a.reli) != math.Float64bits(b.reli) {
			t.Fatalf("feed[%d]: strict %+v merged %+v", i, a, b)
		}
	}
}

// TestDrainOrderMerged asserts all three drain streams — completions,
// changes, transitions — replay in global (time, shard) order even when
// shards complete out of phase. (The three merge loops in shard.go are
// deliberate copies; this test is what keeps them in sync.)
func TestDrainOrderMerged(t *testing.T) {
	lanes := make([]*sim.Simulator, 4)
	for i := range lanes {
		lanes[i] = sim.New()
	}
	cfg := DefaultConfig(4)
	cfg.Server.InitialState = StateActive
	// Immediate-sleep DPM: every completion triggers shutdown transitions,
	// so the transition stream has content to order.
	c, err := NewSharded(cfg, lanes, func(int) DPMPolicy { return adHocTestDPM{} })
	if err != nil {
		t.Fatal(err)
	}
	m := NewMerger(c)
	c.LogTransitions()
	// One job per server, durations chosen so completion order crosses
	// shards: server 3 finishes first, then 1, then 2, then 0.
	durations := []float64{40, 20, 30, 10}
	for i, d := range durations {
		lanes[i].AdvanceTo(0)
		c.Submit(&Job{ID: i, Arrival: 0, Duration: d, Req: Resources{0.1, 0.1, 0.1}, Server: -1}, i)
	}
	for _, ln := range lanes {
		ln.RunBefore(sim.Time(math.MaxFloat64))
	}
	var order []int
	var times []sim.Time
	c.DrainDones(func(tm sim.Time, j *Job) {
		order = append(order, j.ID)
		times = append(times, tm)
	})
	want := []int{3, 1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("drain order %v, want %v", order, want)
		}
		if i > 0 && times[i] < times[i-1] {
			t.Fatalf("drain times not monotone: %v", times)
		}
	}

	// The change feed and the transition stream obey the same merged
	// ordering: times monotone, ties resolved to the lower shard.
	var changeTimes []sim.Time
	m.OnChange = func(tm sim.Time, _ float64, _ int, _ float64) {
		changeTimes = append(changeTimes, tm)
	}
	c.DrainChanges(m)
	if len(changeTimes) == 0 {
		t.Fatal("no change records logged")
	}
	for i := 1; i < len(changeTimes); i++ {
		if changeTimes[i] < changeTimes[i-1] {
			t.Fatalf("change times not monotone: %v", changeTimes)
		}
	}
	var transTimes []sim.Time
	c.DrainTrans(func(tm sim.Time, _ int, _, _ PowerState) {
		transTimes = append(transTimes, tm)
	})
	if len(transTimes) == 0 {
		t.Fatal("no transition records logged")
	}
	for i := 1; i < len(transTimes); i++ {
		if transTimes[i] < transTimes[i-1] {
			t.Fatalf("transition times not monotone: %v", transTimes)
		}
	}
	if c.PendingLogs() {
		t.Fatal("logs not reset after drain")
	}
}

// TestLoadIndexProperty cross-checks the tournament tree against a linear
// scan (with the scan's lowest-index tie preference) under random updates.
func TestLoadIndexProperty(t *testing.T) {
	rng := mat.NewRNG(99)
	for _, n := range []int{1, 2, 3, 7, 8, 64, 100} {
		x := newLoadIndex(n)
		loads := make([]float64, n)
		for step := 0; step < 500; step++ {
			i := rng.Intn(n)
			v := float64(rng.Intn(8)) / 4 // coarse grid to force ties
			loads[i] = v
			x.Update(i, v)
			best, bestLoad := 0, loads[0]
			for k := 1; k < n; k++ {
				if loads[k] < bestLoad {
					best, bestLoad = k, loads[k]
				}
			}
			gotIdx, gotLoad := x.ArgMin()
			if gotIdx != best || gotLoad != bestLoad {
				t.Fatalf("n=%d step=%d: ArgMin=(%d,%v), scan=(%d,%v)", n, step, gotIdx, gotLoad, best, bestLoad)
			}
		}
	}
}
