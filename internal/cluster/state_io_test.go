package cluster

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"hierdrl/internal/checkpoint"
	"hierdrl/internal/fault"
	"hierdrl/internal/sim"
)

// statelessDPM is a checkpoint-aware fixed-timeout stub: all its behavior is
// construction config, so it round-trips as a Stateless component.
type statelessDPM struct{ timeout float64 }

func (d statelessDPM) OnIdle(sim.Time, *Server) float64        { return d.timeout }
func (d statelessDPM) OnArrival(sim.Time, *Server, PowerState) {}
func (d statelessDPM) Observe(sim.Time, float64, int)          {}
func (d statelessDPM) CheckpointStateless()                    {}

// doneRec is one replayed completion, captured bit-exactly.
type doneRec struct {
	id   int
	at   uint64
	fin  uint64
	srv  int
	wait uint64
}

// drainObs replays c's completion and crash-eviction logs into dones and
// lost (nil discards), leaving the logs empty as SaveState requires.
func drainObs(c *Cluster, dones *[]doneRec, lost *[]int) {
	c.DrainDones(func(t sim.Time, j *Job) {
		if dones != nil {
			*dones = append(*dones, doneRec{
				id:   j.ID,
				at:   math.Float64bits(float64(t)),
				fin:  math.Float64bits(float64(j.Finished)),
				srv:  j.Server,
				wait: math.Float64bits(float64(j.Started - j.Arrival)),
			})
		}
	})
	c.DrainInterrupts(func(_ sim.Time, j *Job) {
		if lost != nil {
			*lost = append(*lost, j.ID)
		}
	})
}

// finals collects the cluster-level aggregate observables whose bits must
// survive a checkpoint/restore round trip.
type finals struct {
	completed int64
	fired     int64
	energy    uint64
	power     uint64
	reli      uint64
	jobsInSys int
	down      int
	fails     int64
}

func snapshotFinals(c *Cluster, sm *sim.Simulator) finals {
	return finals{
		completed: c.Completed(),
		fired:     sm.Fired(),
		energy:    math.Float64bits(c.TotalEnergyJoules(sm.Now())),
		power:     math.Float64bits(c.TotalPower()),
		reli:      math.Float64bits(c.ReliabilityObj()),
		jobsInSys: c.JobsInSystem(),
		down:      c.DownServers(),
		fails:     c.Failures(),
	}
}

// buildWorkload schedules nJobs arrivals with deterministic durations on a
// round-robin server assignment, all strictly before the checkpoint instant.
func buildWorkload(sm *sim.Simulator, c *Cluster, nJobs int) {
	for i := 0; i < nJobs; i++ {
		j := mkJob(i, float64(i%8)+0.25*float64(i/8), 4+float64(i%5)*7, 0.15+0.05*float64(i%3))
		srv := i % c.M()
		jj, s := j, srv
		sm.Schedule(jj.Arrival, func() {
			// Remap through NextUp so crashed targets skip to a live server
			// (identity on fault-free runs); drop the job if all are down.
			if up := c.NextUp(s); up >= 0 {
				c.Submit(jj, up)
			}
		})
	}
}

// roundTrip checkpoints c at the current event boundary and restores the
// snapshot into a freshly built cluster, failing the test on any error.
func roundTrip(t *testing.T, c *Cluster, sm *sim.Simulator, mk func() (*Cluster, *sim.Simulator)) (*Cluster, *sim.Simulator) {
	t.Helper()
	w := checkpoint.NewWriter(0)
	c.SaveState(w.Section("cluster"), nil)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	seq, nFired := sm.Counters()

	c2, sm2 := mk()
	sm2.RestoreBegin(sm.Now(), seq, nFired)
	rd, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	d, err := rd.Section("cluster")
	if err != nil {
		t.Fatalf("Section: %v", err)
	}
	if _, err := c2.RestoreState(d); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("trailing section bytes: %v", err)
	}
	return c2, sm2
}

// TestClusterCheckpointRoundTripFaultFree checkpoints a loaded cluster
// mid-run (jobs queued and executing, servers mid-transition) and verifies
// the restored continuation is bitwise identical to the uninterrupted one:
// same completion stream, same energy/power/reliability accumulator bits.
func TestClusterCheckpointRoundTripFaultFree(t *testing.T) {
	cfg := DefaultConfig(4)
	mk := func() (*Cluster, *sim.Simulator) {
		sm := sim.New()
		c, err := newOneShard(cfg, sm, func(int) DPMPolicy { return statelessDPM{timeout: 3} })
		if err != nil {
			t.Fatalf("newOneShard: %v", err)
		}
		return c, sm
	}

	c1, sm1 := mk()
	buildWorkload(sm1, c1, 24)
	sm1.Run(10) // all arrivals fired; completions and DPM timers pending
	drainObs(c1, nil, nil)

	if got := c1.JobsInSystem(); got == 0 {
		t.Fatal("workload drained before the checkpoint instant; test needs live jobs")
	}

	c2, sm2 := roundTrip(t, c1, sm1, mk)

	var dones1, dones2 []doneRec
	sm1.RunAll(1 << 20)
	sm2.RunAll(1 << 20)
	drainObs(c1, &dones1, nil)
	drainObs(c2, &dones2, nil)

	if f1, f2 := snapshotFinals(c1, sm1), snapshotFinals(c2, sm2); f1 != f2 {
		t.Fatalf("final aggregates diverge:\n  reference %+v\n  restored  %+v", f1, f2)
	}
	if len(dones1) != len(dones2) {
		t.Fatalf("completion counts diverge: %d vs %d", len(dones1), len(dones2))
	}
	for i := range dones1 {
		if dones1[i] != dones2[i] {
			t.Fatalf("completion %d diverges: %+v vs %+v", i, dones1[i], dones2[i])
		}
	}
}

// TestClusterCheckpointRoundTripWithFaults does the same with crash/repair
// clocks live: down servers, pending repair timers, eviction bookkeeping and
// the per-server RNG chains must all round-trip so the post-restore failure
// schedule continues exactly where the snapshot left off.
func TestClusterCheckpointRoundTripWithFaults(t *testing.T) {
	cfg := DefaultConfig(4)
	model, err := fault.NewExpCrash(7, 15, 4)
	if err != nil {
		t.Fatalf("NewExpCrash: %v", err)
	}
	var lost1, lost2 []int
	mk := func() (*Cluster, *sim.Simulator) {
		sm := sim.New()
		c, err := newOneShard(cfg, sm, func(int) DPMPolicy { return statelessDPM{timeout: 3} })
		if err != nil {
			t.Fatalf("newOneShard: %v", err)
		}
		c.EnableFaults(model.ClockFor, fault.KindCrash, 1)
		return c, sm
	}

	c1, sm1 := mk()
	buildWorkload(sm1, c1, 24)
	sm1.Run(10)
	drainObs(c1, nil, &lost1)
	preLost := len(lost1)

	c2, sm2 := roundTrip(t, c1, sm1, mk)

	sm1.Run(60)
	sm2.Run(60)
	drainObs(c1, nil, &lost1)
	drainObs(c2, nil, &lost2)

	if f1, f2 := snapshotFinals(c1, sm1), snapshotFinals(c2, sm2); f1 != f2 {
		t.Fatalf("final aggregates diverge:\n  reference %+v\n  restored  %+v", f1, f2)
	}
	if c1.Failures() == 0 {
		t.Fatal("no crashes in 60s at MTTF 15 over 4 servers; fault path untested")
	}
	post1 := lost1[preLost:]
	if len(post1) != len(lost2) {
		t.Fatalf("post-checkpoint interrupts diverge: %d vs %d", len(post1), len(lost2))
	}
	for i := range post1 {
		if post1[i] != lost2[i] {
			t.Fatalf("interrupt %d diverges: job %d vs %d", i, post1[i], lost2[i])
		}
	}
}

// TestClusterRestoreFaultFlagMismatch: a faults-enabled snapshot must not
// restore into a fault-free cluster (and vice versa) — that is a config
// mismatch, not a crash.
func TestClusterRestoreFaultFlagMismatch(t *testing.T) {
	cfg := DefaultConfig(2)
	sm := sim.New()
	c, err := newOneShard(cfg, sm, func(int) DPMPolicy { return statelessDPM{timeout: 3} })
	if err != nil {
		t.Fatalf("newOneShard: %v", err)
	}
	w := checkpoint.NewWriter(0)
	c.SaveState(w.Section("cluster"), nil)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}

	sm2 := sim.New()
	c2, err := newOneShard(cfg, sm2, func(int) DPMPolicy { return statelessDPM{timeout: 3} })
	if err != nil {
		t.Fatalf("newOneShard: %v", err)
	}
	model, _ := fault.NewExpCrash(1, 100, 10)
	c2.EnableFaults(model.ClockFor, fault.KindCrash, 1)
	seq, nFired := sm.Counters()
	sm2.RestoreBegin(sm.Now(), seq, nFired)

	rd, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	d, _ := rd.Section("cluster")
	if _, err := c2.RestoreState(d); !errors.Is(err, checkpoint.ErrConfigMismatch) {
		t.Fatalf("faults mismatch: got %v, want ErrConfigMismatch", err)
	}
}

// TestMergerStateRoundTrip drives the merged-replay accumulators to
// arbitrary values and verifies they restore verbatim into a fresh Merger.
func TestMergerStateRoundTrip(t *testing.T) {
	cfg := DefaultConfig(6)
	mk := func() (*Cluster, *Merger) {
		lanes := []*sim.Simulator{sim.New(), sim.New()}
		c, err := NewSharded(cfg, lanes, func(int) DPMPolicy { return statelessDPM{timeout: 3} })
		if err != nil {
			t.Fatalf("NewSharded: %v", err)
		}
		return c, NewMerger(c)
	}
	_, m1 := mk()
	m1.totalPower = 1234.5678
	m1.jobsInSystem = 17
	for i := range m1.prevPower {
		m1.prevPower[i] = 100 + float64(i)*1.25
		m1.prevJobs[i] = i * 3
		m1.reliTerms[i] = float64(i) * 0.015625
	}
	m1.reliHot[0] = 0x2a
	m1.jobs.buckets[3] = 5
	m1.jobs.max = 3

	w := checkpoint.NewWriter(0)
	m1.SaveState(w.Section("merger"))
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}

	_, m2 := mk()
	rd, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	d, _ := rd.Section("merger")
	if err := m2.RestoreState(d); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("trailing section bytes: %v", err)
	}
	if m2.totalPower != m1.totalPower || m2.jobsInSystem != m1.jobsInSystem {
		t.Fatalf("scalars diverge: (%v,%d) vs (%v,%d)", m2.totalPower, m2.jobsInSystem, m1.totalPower, m1.jobsInSystem)
	}
	for i := range m1.prevPower {
		if m2.prevPower[i] != m1.prevPower[i] || m2.prevJobs[i] != m1.prevJobs[i] || m2.reliTerms[i] != m1.reliTerms[i] {
			t.Fatalf("per-server accumulators diverge at %d", i)
		}
	}
	if m2.reliHot[0] != m1.reliHot[0] || m2.jobs.max != m1.jobs.max || m2.jobs.buckets[3] != m1.jobs.buckets[3] {
		t.Fatal("reliability bitset or jobs multiset diverged")
	}
}
