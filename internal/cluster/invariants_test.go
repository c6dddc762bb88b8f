package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"hierdrl/internal/mat"
	"hierdrl/internal/sim"
)

// Little's-law conservation: once the system drains, the time integral of
// jobs-in-system equals the sum of per-job latencies exactly. Both tiers'
// reward functions lean on this identity (Sec. V-A and VI-B cite Little's
// law to justify using queue length as a latency proxy), so we verify it to
// machine precision on random workloads.
func TestLittlesLawConservation(t *testing.T) {
	f := func(seed int64) bool {
		g := mat.NewRNG(seed)
		sm := sim.New()
		m := 1 + g.Intn(4)
		cfg := DefaultConfig(m)
		timeout := []float64{0, 45, math.Inf(1)}[g.Intn(3)]
		c, err := newOneShard(cfg, sm, func(int) DPMPolicy { return fixedDPM{timeout: timeout} })
		if err != nil {
			return false
		}

		// Integrate N(t) via the replayed change feed.
		var integral float64
		lastT := sim.Time(0)
		lastN := 0
		mg := NewMerger(c)
		mg.OnChange = func(now sim.Time, _ float64, jobs int, _ float64) {
			integral += float64(lastN) * float64(now-lastT)
			lastT = now
			lastN = jobs
		}

		n := 3 + g.Intn(25)
		jobs := make([]*Job, n)
		tNow := 0.0
		for i := range jobs {
			tNow += g.Exponential(0.02)
			jobs[i] = &Job{
				ID:       i,
				Arrival:  sim.Time(tNow),
				Duration: 5 + g.Float64()*300,
				Req:      Resources{0.1 + g.Float64()*0.5, 0.1, 0.1},
				Server:   -1,
			}
		}
		for _, j := range jobs {
			j := j
			srv := g.Intn(m)
			sm.Schedule(j.Arrival, func() { c.Submit(j, srv) })
		}
		sm.RunAll(100000)
		c.DrainChanges(mg)

		var latencySum float64
		for _, j := range jobs {
			latencySum += j.Latency()
		}
		return math.Abs(integral-latencySum) < 1e-6*(1+latencySum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The cached pending-demand must always equal the sum of queued jobs'
// demands, and committed utilization must equal used+pending, at every
// change point of a random workload.
func TestPendingDemandCacheInvariant(t *testing.T) {
	f := func(seed int64) bool {
		g := mat.NewRNG(seed)
		sm := sim.New()
		cfg := DefaultServerConfig()
		srv, err := NewServer(0, sm, cfg, fixedDPM{timeout: 30})
		if err != nil {
			return false
		}
		ok := true
		check := func() {
			var want Resources
			for _, j := range srv.queue[srv.qhead:] {
				want = want.Add(j.Req)
			}
			got := srv.PendingDemand()
			for p := range want {
				if math.Abs(got[p]-want[p]) > 1e-9 {
					ok = false
				}
			}
			cu := srv.CommittedUtilization()
			for p := range cu {
				if math.Abs(cu[p]-(srv.used[p]+srv.pending[p])/cfg.Capacity[p]) > 1e-9 {
					ok = false
				}
			}
		}
		srv.SetHooks(func(sim.Time, *Server) { check() }, nil)

		tNow := 0.0
		for i := 0; i < 30; i++ {
			tNow += g.Exponential(0.05)
			j := &Job{
				ID: i, Arrival: sim.Time(tNow),
				Duration: 5 + g.Float64()*120,
				Req:      Resources{0.2 + g.Float64()*0.6, 0.1, 0.1},
				Server:   -1,
			}
			sm.Schedule(j.Arrival, func() { srv.Submit(j) })
		}
		sm.RunAll(100000)
		check()
		for _, v := range srv.PendingDemand() {
			if math.Abs(v) > 1e-9 {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitRejectsOversizedJob(t *testing.T) {
	sm := sim.New()
	srv, err := NewServer(0, sm, DefaultServerConfig(), fixedDPM{timeout: 0})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("oversized job accepted")
		}
	}()
	srv.Submit(&Job{ID: 0, Duration: 10, Req: Resources{1.5, 0.1, 0.1}, Server: -1})
}

// The incrementally maintained reliability objective must equal the full
// O(M·P) rescan — bit for bit, not approximately — after every single event
// of a randomized run. The sparse sum skips only exact-0.0 terms in
// ascending server order, so any deviation indicates a bookkeeping bug.
func TestReliabilityIncrementalEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		g := mat.NewRNG(seed)
		sm := sim.New()
		m := 1 + g.Intn(6)
		cfg := DefaultConfig(m)
		timeout := []float64{0, 45, math.Inf(1)}[g.Intn(3)]
		c, err := newOneShard(cfg, sm, func(int) DPMPolicy { return fixedDPM{timeout: timeout} })
		if err != nil {
			return false
		}
		ok := true
		onEveryChange(c, func(sim.Time) {
			if inc, ref := c.ReliabilityObj(), c.reliabilityRecompute(); inc != ref {
				t.Logf("seed %d: incremental %v != recomputed %v", seed, inc, ref)
				ok = false
			}
		})
		n := 5 + g.Intn(40)
		tNow := 0.0
		for i := 0; i < n; i++ {
			tNow += g.Exponential(0.02)
			// Deliberately oversubscribe some servers so hot-spot terms and
			// deep queues actually occur.
			j := &Job{
				ID:       i,
				Arrival:  sim.Time(tNow),
				Duration: 5 + g.Float64()*400,
				Req:      Resources{0.2 + g.Float64()*0.7, 0.1 + g.Float64()*0.5, 0.1},
				Server:   -1,
			}
			srv := g.Intn(m)
			sm.Schedule(j.Arrival, func() { c.Submit(j, srv) })
		}
		sm.RunAll(100000)
		return ok && c.ReliabilityObj() == c.reliabilityRecompute()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// SnapshotInto must produce exactly what Snapshot produces, and refreshing a
// warm View must not allocate.
func TestSnapshotIntoMatchesSnapshotAndIsAllocFree(t *testing.T) {
	sm := sim.New()
	c, err := newOneShard(DefaultConfig(4), sm, func(int) DPMPolicy { return fixedDPM{timeout: 30} })
	if err != nil {
		t.Fatalf("newOneShard: %v", err)
	}
	g := mat.NewRNG(9)
	tNow := 0.0
	for i := 0; i < 25; i++ {
		tNow += g.Exponential(0.05)
		j := &Job{ID: i, Arrival: sim.Time(tNow), Duration: 30 + g.Float64()*200,
			Req: Resources{0.2 + g.Float64()*0.4, 0.1, 0.1}, Server: -1}
		srv := g.Intn(4)
		sm.Schedule(j.Arrival, func() { c.Submit(j, srv) })
	}
	sm.Run(sim.Time(tNow / 2))

	var reused View
	c.SnapshotInto(&reused)
	fresh := c.Snapshot()
	if fresh.Now != reused.Now || fresh.M != reused.M {
		t.Fatalf("header mismatch: %+v vs %+v", fresh, reused)
	}
	for i := 0; i < fresh.M; i++ {
		if fresh.Util[i] != reused.Util[i] || fresh.Pending[i] != reused.Pending[i] ||
			fresh.QueueLen[i] != reused.QueueLen[i] || fresh.InSystem[i] != reused.InSystem[i] ||
			fresh.State[i] != reused.State[i] {
			t.Fatalf("server %d mismatch", i)
		}
	}
	if raceEnabled {
		t.Skip("allocation pinning is meaningless under -race")
	}
	avg := testing.AllocsPerRun(200, func() { c.SnapshotInto(&reused) })
	if avg != 0 {
		t.Fatalf("warm SnapshotInto allocates %v per call, want 0", avg)
	}
}

// Energy must be conserved across DPM policies in the sense that for an
// identical workload, total energy == integral of reported power. We verify
// by sampling TotalPower at every event and integrating manually.
func TestClusterEnergyMatchesPowerIntegral(t *testing.T) {
	sm := sim.New()
	cfg := DefaultConfig(3)
	c, err := newOneShard(cfg, sm, func(int) DPMPolicy { return fixedDPM{timeout: 40} })
	if err != nil {
		t.Fatalf("newOneShard: %v", err)
	}
	var integral float64
	lastT := sim.Time(0)
	lastP := c.TotalPower()
	mg := NewMerger(c)
	mg.OnChange = func(now sim.Time, power float64, _ int, _ float64) {
		integral += lastP * float64(now-lastT)
		lastT = now
		lastP = power
	}
	g := mat.NewRNG(4)
	tNow := 0.0
	for i := 0; i < 40; i++ {
		tNow += g.Exponential(0.02)
		j := &Job{ID: i, Arrival: sim.Time(tNow), Duration: 10 + g.Float64()*200,
			Req: Resources{0.1 + g.Float64()*0.4, 0.1, 0.1}, Server: -1}
		srv := g.Intn(3)
		sm.Schedule(j.Arrival, func() { c.Submit(j, srv) })
	}
	sm.RunAll(100000)
	c.DrainChanges(mg)
	// Close the integral at the final instant.
	integral += lastP * float64(sm.Now()-lastT)
	want := c.TotalEnergyJoules(sm.Now())
	if math.Abs(integral-want) > 1e-6*(1+want) {
		t.Fatalf("power integral %v != energy %v", integral, want)
	}
}
