package cluster

import (
	"fmt"
	"math"

	"hierdrl/internal/sim"
)

// The epoch engine's observation streams. Between two epoch barriers every
// shard appends its server events to private logs (single writer: the
// goroutine stepping the shard's lane); at the barrier the coordinator replays them through DrainChanges/
// DrainDones/DrainTrans in merged global time order. Per-shard logs are
// time-sorted by construction (each lane's clock is monotone), so the merge
// is a k-way min pick with ties broken by ascending shard index — making the
// replayed order a pure function of simulated time and the fixed partition,
// never of goroutine scheduling. That is the engine's reproducibility
// contract (DESIGN.md §12).

// ChangeRec is one aggregate-relevant server event: the server's post-event
// power draw, jobs-in-system count, and committed utilization. It carries
// everything the Merger needs to replay the single-sequence incremental global
// bookkeeping arithmetic exactly.
type ChangeRec struct {
	At     sim.Time
	Server int32
	Jobs   int32
	Power  float64
	CU     Resources
}

// DoneRec is one job completion.
type DoneRec struct {
	At sim.Time
	J  *Job
}

// TransRec is one power-mode transition.
type TransRec struct {
	At     sim.Time
	Server int32
	From   PowerState
	To     PowerState
}

// InterruptRec is one crash-evicted job awaiting its retry decision.
type InterruptRec struct {
	At sim.Time
	J  *Job
}

// DegradeRec is one fail-slow edge: Factor is the new effective speed
// multiplier (1.0 on restore to full speed).
type DegradeRec struct {
	At     sim.Time
	Server int32
	Factor float64
}

// MaintRec is one maintenance-window opening (the drain start; the eventual
// power-off and repair travel the transition/fault streams).
type MaintRec struct {
	At     sim.Time
	Server int32
}

// prepCursor resets the cluster-retained per-shard merge cursor (allocated
// once), so draining allocates nothing.
func (c *Cluster) prepCursor() []int {
	if cap(c.drainCur) < len(c.shards) {
		c.drainCur = make([]int, len(c.shards))
	}
	cur := c.drainCur[:len(c.shards)]
	for i := range cur {
		cur[i] = 0
	}
	return cur
}

// The seven Drain* loops below are intentionally parallel copies of one
// k-way merge: a generic driver would either box the per-record emit into a
// per-barrier closure (breaking the zero-alloc epoch) or hide the ordering
// rule behind adapters. The rule they must share — pop the earliest head,
// ties to the lowest shard index, per-shard FIFO — is the reproducibility
// contract; change it in all seven together (TestDrainOrderMerged covers
// each stream).

// DrainChanges replays every logged ChangeRec in merged (time, shard) order
// through the Merger, then resets the logs (keeping capacity).
func (c *Cluster) DrainChanges(m *Merger) {
	cur := c.prepCursor()
	for {
		best := -1
		var bestAt sim.Time
		for s := range c.shards {
			log := c.shards[s].changes
			if cur[s] >= len(log) {
				continue
			}
			if at := log[cur[s]].At; best < 0 || at < bestAt {
				best, bestAt = s, at
			}
		}
		if best < 0 {
			break
		}
		m.Apply(&c.shards[best].changes[cur[best]])
		cur[best]++
	}
	for s := range c.shards {
		c.shards[s].changes = c.shards[s].changes[:0]
	}
}

// DrainDones replays every logged completion in merged (time, shard) order,
// then resets the logs (keeping capacity).
func (c *Cluster) DrainDones(fn func(t sim.Time, j *Job)) {
	cur := c.prepCursor()
	for {
		best := -1
		var bestAt sim.Time
		for s := range c.shards {
			log := c.shards[s].dones
			if cur[s] >= len(log) {
				continue
			}
			if at := log[cur[s]].At; best < 0 || at < bestAt {
				best, bestAt = s, at
			}
		}
		if best < 0 {
			break
		}
		rec := &c.shards[best].dones[cur[best]]
		fn(rec.At, rec.J)
		rec.J = nil // drop the reference so the log slab never pins a pooled job
		cur[best]++
	}
	for s := range c.shards {
		c.shards[s].dones = c.shards[s].dones[:0]
	}
}

// DrainTrans replays every logged power-mode transition in merged
// (time, shard) order, then resets the logs (keeping capacity).
func (c *Cluster) DrainTrans(fn func(t sim.Time, server int, from, to PowerState)) {
	cur := c.prepCursor()
	for {
		best := -1
		var bestAt sim.Time
		for s := range c.shards {
			log := c.shards[s].trans
			if cur[s] >= len(log) {
				continue
			}
			if at := log[cur[s]].At; best < 0 || at < bestAt {
				best, bestAt = s, at
			}
		}
		if best < 0 {
			break
		}
		rec := &c.shards[best].trans[cur[best]]
		fn(rec.At, int(rec.Server), rec.From, rec.To)
		cur[best]++
	}
	for s := range c.shards {
		c.shards[s].trans = c.shards[s].trans[:0]
	}
}

// DrainInterrupts replays every logged crash eviction in merged
// (time, shard) order, then resets the logs (keeping capacity). The session
// routes each job through its RetryPolicy here, so requeue decisions happen
// at the barrier in a deterministic order.
func (c *Cluster) DrainInterrupts(fn func(t sim.Time, j *Job)) {
	cur := c.prepCursor()
	for {
		best := -1
		var bestAt sim.Time
		for s := range c.shards {
			log := c.shards[s].interrupts
			if cur[s] >= len(log) {
				continue
			}
			if at := log[cur[s]].At; best < 0 || at < bestAt {
				best, bestAt = s, at
			}
		}
		if best < 0 {
			break
		}
		rec := &c.shards[best].interrupts[cur[best]]
		fn(rec.At, rec.J)
		rec.J = nil // drop the reference so the log slab never pins a pooled job
		cur[best]++
	}
	for s := range c.shards {
		c.shards[s].interrupts = c.shards[s].interrupts[:0]
	}
}

// DrainMigrates replays every logged drain-time migration in merged
// (time, shard) order, then resets the logs (keeping capacity). Like
// DrainInterrupts, the session routes each job through its RetryPolicy here.
func (c *Cluster) DrainMigrates(fn func(t sim.Time, j *Job)) {
	cur := c.prepCursor()
	for {
		best := -1
		var bestAt sim.Time
		for s := range c.shards {
			log := c.shards[s].migrates
			if cur[s] >= len(log) {
				continue
			}
			if at := log[cur[s]].At; best < 0 || at < bestAt {
				best, bestAt = s, at
			}
		}
		if best < 0 {
			break
		}
		rec := &c.shards[best].migrates[cur[best]]
		fn(rec.At, rec.J)
		rec.J = nil // drop the reference so the log slab never pins a pooled job
		cur[best]++
	}
	for s := range c.shards {
		c.shards[s].migrates = c.shards[s].migrates[:0]
	}
}

// DrainDegrades replays every logged fail-slow edge in merged (time, shard)
// order, then resets the logs (keeping capacity).
func (c *Cluster) DrainDegrades(fn func(t sim.Time, server int, factor float64)) {
	cur := c.prepCursor()
	for {
		best := -1
		var bestAt sim.Time
		for s := range c.shards {
			log := c.shards[s].degrades
			if cur[s] >= len(log) {
				continue
			}
			if at := log[cur[s]].At; best < 0 || at < bestAt {
				best, bestAt = s, at
			}
		}
		if best < 0 {
			break
		}
		rec := &c.shards[best].degrades[cur[best]]
		fn(rec.At, int(rec.Server), rec.Factor)
		cur[best]++
	}
	for s := range c.shards {
		c.shards[s].degrades = c.shards[s].degrades[:0]
	}
}

// DrainMaints replays every logged maintenance-window opening in merged
// (time, shard) order, then resets the logs (keeping capacity).
func (c *Cluster) DrainMaints(fn func(t sim.Time, server int)) {
	cur := c.prepCursor()
	for {
		best := -1
		var bestAt sim.Time
		for s := range c.shards {
			log := c.shards[s].maints
			if cur[s] >= len(log) {
				continue
			}
			if at := log[cur[s]].At; best < 0 || at < bestAt {
				best, bestAt = s, at
			}
		}
		if best < 0 {
			break
		}
		rec := &c.shards[best].maints[cur[best]]
		fn(rec.At, int(rec.Server))
		cur[best]++
	}
	for s := range c.shards {
		c.shards[s].maints = c.shards[s].maints[:0]
	}
}

// PendingLogs reports whether any shard has undrained log entries (test and
// invariant surface).
func (c *Cluster) PendingLogs() bool {
	for s := range c.shards {
		g := &c.shards[s]
		if len(g.changes) > 0 || len(g.dones) > 0 || len(g.trans) > 0 || len(g.interrupts) > 0 ||
			len(g.migrates) > 0 || len(g.degrades) > 0 || len(g.maints) > 0 {
			return true
		}
	}
	return false
}

// Merger replays the merged change feed through one global bookkeeping
// sequence: one incremental power accumulator, one jobs-in-system counter,
// one global reliability term cache with the ascending sparse summation, one
// jobs multiset. Because per-server state evolution is shard-local (bitwise
// the same at every shard count) and the merged record order equals the
// one-shard event order whenever no two shards fire at the same instant, the
// (power, jobs, reliability) stream a DRL agent observes through a Merger is
// bitwise the same at every P — which is what keeps sharded learning runs
// equal to one-shard ones (DESIGN.md §12 documents the simultaneity caveat).
// Building a Merger turns on the cluster's change log.
type Merger struct {
	theta        float64
	totalPower   float64
	jobsInSystem int
	prevPower    []float64
	prevJobs     []int
	reliTerms    []float64
	reliHot      []uint64
	jobs         jobsMultiset

	// OnChange receives the replayed feed: the post-event global aggregates
	// at the event's instant, in merged time order.
	OnChange func(t sim.Time, powerW float64, jobsInSystem int, reli float64)
}

// NewMerger builds a Merger whose initial state replicates the cluster's
// construction-time aggregates (the same ascending initial power summation
// the constructor performs).
func NewMerger(c *Cluster) *Merger {
	m := &Merger{
		theta:     c.cfg.HotSpotThreshold,
		prevPower: make([]float64, c.cfg.M),
		prevJobs:  make([]int, c.cfg.M),
		reliTerms: make([]float64, c.cfg.M*NumResources),
		reliHot:   make([]uint64, (c.cfg.M+63)/64),
	}
	m.jobs.init(c.cfg.M)
	c.logChanges = true
	for i, s := range c.servers {
		m.prevPower[i] = s.Power()
		m.totalPower += s.Power()
	}
	return m
}

// Apply replays one change record through the global bookkeeping and
// fires OnChange.
func (m *Merger) Apply(rec *ChangeRec) {
	i := int(rec.Server)
	jobs := int(rec.Jobs)
	m.totalPower += rec.Power - m.prevPower[i]
	m.jobsInSystem += jobs - m.prevJobs[i]
	if old := m.prevJobs[i]; old != jobs {
		m.jobs.move(old, jobs)
	}
	m.prevPower[i] = rec.Power
	m.prevJobs[i] = jobs
	updateReliTerms(m.reliTerms, m.reliHot, i, rec.CU, m.theta)
	if m.OnChange != nil {
		m.OnChange(rec.At, m.totalPower, m.jobsInSystem, m.Reliability())
	}
}

// TotalPower returns the replayed global power accumulator.
func (m *Merger) TotalPower() float64 { return m.totalPower }

// JobsInSystem returns the replayed global jobs-in-system counter.
func (m *Merger) JobsInSystem() int { return m.jobsInSystem }

// Reliability returns the replayed reliability objective: the global
// ascending sparse sum over the global term cache plus the max-jobs term.
func (m *Merger) Reliability() float64 {
	return sparseReliSum(m.reliTerms, m.reliHot) + float64(m.jobs.max)
}

// InvariantCheck compares the replayed aggregates against the cluster's
// per-shard incremental ones. Power and reliability are FP sums in different
// association orders, so they match to tolerance, not bitwise; the integer
// counters must be exact. Valid only at a barrier with all logs drained.
func (m *Merger) InvariantCheck(c *Cluster) {
	if c.PendingLogs() {
		panic("cluster: Merger.InvariantCheck with undrained logs")
	}
	if got, want := m.jobsInSystem, c.JobsInSystem(); got != want {
		panic(fmt.Sprintf("cluster: merger jobs drift: replayed %d incremental %d", got, want))
	}
	if got, want := m.totalPower, c.TotalPower(); !closeRel(got, want, 1e-9) {
		panic(fmt.Sprintf("cluster: merger power drift: replayed %v incremental %v", got, want))
	}
	if got, want := m.Reliability(), c.ReliabilityObj(); !closeRel(got, want, 1e-9) {
		panic(fmt.Sprintf("cluster: merger reliability drift: replayed %v incremental %v", got, want))
	}
}

func closeRel(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
}
