package cluster

import (
	"fmt"
	"math"
	"sort"

	"hierdrl/internal/checkpoint"
	"hierdrl/internal/fault"
	"hierdrl/internal/sim"
)

// This file serializes the complete resumable state of a cluster at an event
// boundary: every live job (waiting or executing), every server's structural
// and timer state, and the per-shard incremental aggregates — verbatim, so a
// restored run's floating-point accumulators continue bit for bit.
//
// Timers are captured as (at, seq) pairs and re-scheduled through
// sim.ScheduleRestored with their original trampolines, which the restoring
// side selects from the server's power state (a pending trans timer is a wake
// completion while StateWaking and a shutdown completion while
// StateShuttingDown; the fault timer is a crash while up and a repair while
// down). The lane's RestoreBegin must have run before RestoreState so the
// explicit sequence numbers land in an empty queue.

// saveTimer appends a presence flag plus the (at, seq) key of a pending timer.
func saveTimer(e *checkpoint.Enc, tm sim.Timer) {
	if !tm.Pending() {
		e.Bool(false)
		return
	}
	e.Bool(true)
	e.F64(float64(tm.At()))
	e.I64(tm.Seq())
}

// restoreTimer reads what saveTimer wrote and re-schedules the event on sm
// with its original key. An instant before the lane clock (or NaN) marks a
// corrupt snapshot rather than a panic inside the scheduler.
func restoreTimer(d *checkpoint.Dec, sm *sim.Simulator, fn func(any), arg any) (sim.Timer, error) {
	present := d.Bool()
	at := sim.Time(0)
	var seq int64
	if present {
		at = sim.Time(d.F64())
		seq = d.I64()
	}
	if err := d.Sticky(); err != nil && present {
		// Surface a truncation before scheduling garbage values.
		return sim.Timer{}, err
	}
	if !present {
		return sim.Timer{}, nil
	}
	if math.IsNaN(float64(at)) || at < sm.Now() {
		return sim.Timer{}, fmt.Errorf("%w: timer at %v before lane clock %v", checkpoint.ErrCorrupt, at, sm.Now())
	}
	return sm.ScheduleRestored(at, seq, fn, arg), nil
}

// saveMultiset appends a jobs-in-system multiset verbatim.
func saveMultiset(e *checkpoint.Enc, m *jobsMultiset) {
	e.Ints(m.buckets)
	e.Int(m.max)
}

// restoreMultiset reads what saveMultiset wrote, validating the cursor.
func restoreMultiset(d *checkpoint.Dec, m *jobsMultiset) error {
	buckets := d.Ints()
	max := d.Int()
	if err := d.Sticky(); err != nil && len(buckets) == 0 {
		return err
	}
	if len(buckets) == 0 || max < 0 || max >= len(buckets) {
		return fmt.Errorf("%w: jobs multiset max %d over %d buckets", checkpoint.ErrCorrupt, max, len(buckets))
	}
	m.buckets = buckets
	m.max = max
	return nil
}

// saveHot appends a length-prefixed []uint64 bitset.
func saveHot(e *checkpoint.Enc, hot []uint64) {
	e.Int(len(hot))
	for _, v := range hot {
		e.U64(v)
	}
}

// restoreHotInto reads a bitset whose length must match len(dst).
func restoreHotInto(d *checkpoint.Dec, dst []uint64) error {
	n := d.SliceLen(8)
	if err := d.Sticky(); err != nil {
		return err
	}
	if n != len(dst) {
		return fmt.Errorf("%w: hot bitset length %d, want %d", checkpoint.ErrConfigMismatch, n, len(dst))
	}
	for i := range dst {
		dst[i] = d.U64()
	}
	return nil
}

// runningJobs collects each server's executing jobs in a deterministic order:
// the crash-interrupt list verbatim under fault injection (its slot order is
// behavior — crashes evict in it), or the live completion timers discovered
// from the lanes and sorted by sequence number on fault-free runs, where no
// server-side list exists.
func (c *Cluster) runningJobs() [][]*Job {
	running := make([][]*Job, len(c.servers))
	if c.faults {
		for i, s := range c.servers {
			running[i] = s.runJobs
		}
		return running
	}
	for si := range c.shards {
		c.shards[si].sm.ForEachPending(func(at sim.Time, seq int64, cb func(any), arg any) {
			if j, ok := arg.(*Job); ok {
				running[j.srv.id] = append(running[j.srv.id], j)
			}
		})
	}
	for i := range running {
		r := running[i]
		sort.Slice(r, func(a, b int) bool { return r[a].done.Seq() < r[b].done.Seq() })
	}
	return running
}

// SaveState serializes the cluster: the live job table, every server, and the
// per-shard aggregates. extra lists live jobs held outside the cluster (the
// epoch engine's allocated-but-uncommitted dispatches); the returned map
// gives every live job's table index so the caller can serialize its own
// cross-references. Must be called at an event boundary with all shard
// observation logs drained.
func (c *Cluster) SaveState(e *checkpoint.Enc, extra []*Job) map[*Job]int32 {
	if c.PendingLogs() {
		panic("cluster: SaveState with undrained shard observation logs")
	}
	running := c.runningJobs()

	idx := make(map[*Job]int32)
	var table []*Job
	add := func(j *Job) {
		if _, ok := idx[j]; ok {
			panic(fmt.Sprintf("cluster: job %d reachable twice during checkpoint", j.ID))
		}
		idx[j] = int32(len(table))
		table = append(table, j)
	}
	for i, s := range c.servers {
		for _, j := range s.queue[s.qhead:] {
			add(j)
		}
		for _, j := range running[i] {
			add(j)
		}
	}
	for _, j := range extra {
		add(j)
	}

	e.Int(len(table))
	for _, j := range table {
		e.Int(j.ID)
		e.F64(float64(j.Arrival))
		e.F64(j.Duration)
		for p := 0; p < NumResources; p++ {
			e.F64(j.Req[p])
		}
		e.Int(j.Server)
		e.F64(float64(j.Started))
		e.F64(float64(j.Finished))
		e.Bool(j.started)
		e.Bool(j.finished)
	}
	e.Bool(c.faults)

	for i, s := range c.servers {
		e.Int(int(s.state))
		for p := 0; p < NumResources; p++ {
			e.F64(s.used[p])
		}
		for p := 0; p < NumResources; p++ {
			e.F64(s.pending[p])
		}
		e.Int(s.running)
		e.F64(s.speed)
		e.Bool(s.degraded)
		e.F64(float64(s.degradedAt))
		e.F64(s.degradedSec)
		e.Bool(s.draining)
		e.I64(s.drains)
		q := s.queue[s.qhead:]
		e.Int(len(q))
		for _, j := range q {
			e.I32(idx[j])
		}
		e.Int(len(running[i]))
		for _, j := range running[i] {
			e.I32(idx[j])
			e.F64(float64(j.done.At()))
			e.I64(j.done.Seq())
		}
		saveTimer(e, s.timeout)
		saveTimer(e, s.trans)
		saveTimer(e, s.flt)
		e.I64(s.fails)
		e.I64(s.repairs)
		e.F64(float64(s.downAt))
		e.F64(s.downSec)
		e.F64(float64(s.lastT))
		e.F64(s.lastPower)
		e.F64(s.energyJ)
		e.I64(s.wakeups)
		e.I64(s.shutdowns)
		e.I64(s.completed)
		checkpoint.SaveComponent(e, s.dpm)
		if s.fclock != nil {
			e.Bool(true)
			checkpoint.SaveComponent(e, s.fclock)
		} else {
			e.Bool(false)
		}
	}

	for si := range c.shards {
		g := &c.shards[si]
		e.F64(g.totalPower)
		e.Int(g.jobsInSystem)
		e.F64s(g.prevPower)
		e.Ints(g.prevJobs)
		e.F64s(g.reliTerms)
		saveHot(e, g.reliHot)
		e.Bool(g.reliDirty)
		e.F64(g.reliSum)
		saveMultiset(e, &g.jobs)
		e.I64(g.completed)
		e.I64(g.submitted)
		e.Int(g.down)
		e.Int(g.draining)
		e.I64(g.fails)
	}
	return idx
}

// jobRecBytes is the fixed encoded size of one job-table record: six 8-byte
// scalar fields, NumResources demand entries, two booleans.
const jobRecBytes = (6+NumResources)*8 + 2

// RestoreState reads what SaveState wrote into a freshly constructed cluster
// of the same configuration, re-scheduling every live timer on the (already
// RestoreBegin-reset) lanes. It returns the decoded job table so the caller
// can resolve its own cross-references (in-flight dispatches).
func (c *Cluster) RestoreState(d *checkpoint.Dec) ([]*Job, error) {
	n := d.SliceLen(jobRecBytes)
	if err := d.Sticky(); err != nil {
		return nil, err
	}
	table := make([]*Job, n)
	for i := range table {
		j := &Job{
			ID:       d.Int(),
			Arrival:  sim.Time(d.F64()),
			Duration: d.F64(),
		}
		for p := 0; p < NumResources; p++ {
			j.Req[p] = d.F64()
		}
		j.Server = d.Int()
		j.Started = sim.Time(d.F64())
		j.Finished = sim.Time(d.F64())
		j.started = d.Bool()
		j.finished = d.Bool()
		table[i] = j
	}
	jobAt := func(k int32) (*Job, error) {
		if k < 0 || int(k) >= len(table) {
			return nil, fmt.Errorf("%w: job table index %d of %d", checkpoint.ErrCorrupt, k, len(table))
		}
		return table[k], nil
	}
	wantFaults := d.Bool()
	if err := d.Sticky(); err != nil {
		return nil, err
	}
	if wantFaults != c.faults {
		return nil, fmt.Errorf("%w: snapshot faults=%v, cluster faults=%v", checkpoint.ErrConfigMismatch, wantFaults, c.faults)
	}

	for _, s := range c.servers {
		st := PowerState(d.Int())
		if st < StateSleep || st > StateDown {
			return nil, fmt.Errorf("%w: server %d power state %d", checkpoint.ErrCorrupt, s.id, st)
		}
		s.state = st
		for p := 0; p < NumResources; p++ {
			s.used[p] = d.F64()
		}
		for p := 0; p < NumResources; p++ {
			s.pending[p] = d.F64()
		}
		s.running = d.Int()
		s.speed = d.F64()
		s.degraded = d.Bool()
		s.degradedAt = sim.Time(d.F64())
		s.degradedSec = d.F64()
		s.draining = d.Bool()
		s.drains = d.I64()
		if err := d.Sticky(); err != nil {
			return nil, err
		}
		if !(s.speed > 0) || math.IsInf(s.speed, 1) {
			return nil, fmt.Errorf("%w: server %d effective speed %v", checkpoint.ErrCorrupt, s.id, s.speed)
		}
		if s.draining && st != StateActive {
			return nil, fmt.Errorf("%w: server %d draining in power state %v", checkpoint.ErrCorrupt, s.id, st)
		}
		nq := d.SliceLen(4)
		if err := d.Sticky(); err != nil {
			return nil, err
		}
		s.queue = s.queue[:0]
		s.qhead = 0
		for k := 0; k < nq; k++ {
			j, err := jobAt(d.I32())
			if err != nil {
				return nil, err
			}
			s.queue = append(s.queue, j)
		}
		nr := d.SliceLen(4 + 8 + 8)
		if err := d.Sticky(); err != nil {
			return nil, err
		}
		s.runJobs = s.runJobs[:0]
		if s.running != nr {
			return nil, fmt.Errorf("%w: server %d running count %d, %d completion timers", checkpoint.ErrCorrupt, s.id, s.running, nr)
		}
		for k := 0; k < nr; k++ {
			j, err := jobAt(d.I32())
			if err != nil {
				return nil, err
			}
			at := sim.Time(d.F64())
			seq := d.I64()
			if err := d.Sticky(); err != nil {
				return nil, err
			}
			if math.IsNaN(float64(at)) || at < s.sm.Now() {
				return nil, fmt.Errorf("%w: job %d completion at %v before lane clock %v", checkpoint.ErrCorrupt, j.ID, at, s.sm.Now())
			}
			j.srv = s
			j.done = s.sm.ScheduleRestored(at, seq, jobComplete, j)
			if c.faults {
				j.runIdx = int32(k)
				s.runJobs = append(s.runJobs, j)
			}
		}
		var err error
		if s.timeout, err = restoreTimer(d, s.sm, serverTimeoutExpire, s); err != nil {
			return nil, err
		}
		transFn := serverWakeComplete
		if st == StateShuttingDown {
			transFn = serverShutdownComplete
		}
		if s.trans, err = restoreTimer(d, s.sm, transFn, s); err != nil {
			return nil, err
		}
		if got, want := s.trans.Pending(), st == StateWaking || st == StateShuttingDown; got != want {
			return nil, fmt.Errorf("%w: server %d state %v with transition timer %v", checkpoint.ErrCorrupt, s.id, st, got)
		}
		// The fault trampoline is selected from the model kind and the
		// server's phase: a down server's pending timer is always its repair;
		// otherwise a degrade model alternates start/end on the degraded flag,
		// a drain model's timer opens the next maintenance window (none is
		// pending mid-drain — onDrainStart consumed it), and a crash model's
		// timer is the next crash.
		fltFn := serverCrash
		switch {
		case st == StateDown:
			fltFn = serverRepair
		case c.faultKind == fault.KindDegrade && s.degraded:
			fltFn = serverDegradeEnd
		case c.faultKind == fault.KindDegrade:
			fltFn = serverDegradeStart
		case c.faultKind == fault.KindDrain:
			fltFn = serverDrainStart
		}
		if s.flt, err = restoreTimer(d, s.sm, fltFn, s); err != nil {
			return nil, err
		}
		if s.flt.Pending() && s.fclock == nil {
			return nil, fmt.Errorf("%w: server %d fault timer without a failure clock", checkpoint.ErrCorrupt, s.id)
		}
		if s.draining && s.flt.Pending() {
			return nil, fmt.Errorf("%w: server %d draining with a pending fault timer", checkpoint.ErrCorrupt, s.id)
		}
		s.fails = d.I64()
		s.repairs = d.I64()
		s.downAt = sim.Time(d.F64())
		s.downSec = d.F64()
		s.lastT = sim.Time(d.F64())
		s.lastPower = d.F64()
		s.energyJ = d.F64()
		s.wakeups = d.I64()
		s.shutdowns = d.I64()
		s.completed = d.I64()
		if err := checkpoint.RestoreComponent(d, s.dpm); err != nil {
			return nil, err
		}
		hasClock := d.Bool()
		if err := d.Sticky(); err != nil {
			return nil, err
		}
		if hasClock != (s.fclock != nil) {
			return nil, fmt.Errorf("%w: snapshot clock presence %v for server %d, cluster has %v",
				checkpoint.ErrConfigMismatch, hasClock, s.id, s.fclock != nil)
		}
		if hasClock {
			if err := checkpoint.RestoreComponent(d, s.fclock); err != nil {
				return nil, err
			}
		}
	}

	for si := range c.shards {
		g := &c.shards[si]
		g.totalPower = d.F64()
		g.jobsInSystem = d.Int()
		pp := d.F64s()
		pj := d.Ints()
		rt := d.F64s()
		if err := d.Sticky(); err != nil {
			return nil, err
		}
		if len(pp) != len(g.prevPower) || len(pj) != len(g.prevJobs) || len(rt) != len(g.reliTerms) {
			return nil, fmt.Errorf("%w: shard %d aggregate widths (%d,%d,%d), want (%d,%d,%d)",
				checkpoint.ErrConfigMismatch, si, len(pp), len(pj), len(rt),
				len(g.prevPower), len(g.prevJobs), len(g.reliTerms))
		}
		copy(g.prevPower, pp)
		copy(g.prevJobs, pj)
		copy(g.reliTerms, rt)
		if err := restoreHotInto(d, g.reliHot); err != nil {
			return nil, err
		}
		g.reliDirty = d.Bool()
		g.reliSum = d.F64()
		if err := restoreMultiset(d, &g.jobs); err != nil {
			return nil, err
		}
		g.completed = d.I64()
		g.submitted = d.I64()
		g.down = d.Int()
		g.draining = d.Int()
		g.fails = d.I64()
		g.changes = g.changes[:0]
		g.dones = g.dones[:0]
		g.trans = g.trans[:0]
		g.interrupts = g.interrupts[:0]
		g.migrates = g.migrates[:0]
		g.degrades = g.degrades[:0]
		g.maints = g.maints[:0]
	}
	if err := d.Sticky(); err != nil {
		return nil, err
	}

	// The load index is derived state: rebuild it from the restored servers
	// rather than trusting (and having to validate) a serialized copy.
	for si := range c.shards {
		g := &c.shards[si]
		if g.idx == nil {
			continue
		}
		for i := g.lo; i < g.hi; i++ {
			g.idx.loads[i-g.lo] = c.servers[i].CommittedLoad()
		}
		g.idx.rebuild()
	}
	return table, nil
}

// SaveState serializes the merged-replay bookkeeping verbatim (the replayed
// FP accumulators must continue bit for bit, exactly like the shard-local
// ones).
func (m *Merger) SaveState(e *checkpoint.Enc) {
	e.F64(m.totalPower)
	e.Int(m.jobsInSystem)
	e.F64s(m.prevPower)
	e.Ints(m.prevJobs)
	e.F64s(m.reliTerms)
	saveHot(e, m.reliHot)
	saveMultiset(e, &m.jobs)
}

// RestoreState reads what SaveState wrote into a freshly constructed Merger
// of the same cluster size.
func (m *Merger) RestoreState(d *checkpoint.Dec) error {
	m.totalPower = d.F64()
	m.jobsInSystem = d.Int()
	pp := d.F64s()
	pj := d.Ints()
	rt := d.F64s()
	if err := d.Sticky(); err != nil {
		return err
	}
	if len(pp) != len(m.prevPower) || len(pj) != len(m.prevJobs) || len(rt) != len(m.reliTerms) {
		return fmt.Errorf("%w: merger aggregate widths (%d,%d,%d), want (%d,%d,%d)",
			checkpoint.ErrConfigMismatch, len(pp), len(pj), len(rt),
			len(m.prevPower), len(m.prevJobs), len(m.reliTerms))
	}
	copy(m.prevPower, pp)
	copy(m.prevJobs, pj)
	copy(m.reliTerms, rt)
	if err := restoreHotInto(d, m.reliHot); err != nil {
		return err
	}
	return restoreMultiset(d, &m.jobs)
}

var _ checkpoint.Stateful = (*Merger)(nil)
