package hierdrl

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hierdrl/internal/cluster"
	"hierdrl/internal/sim"
	"hierdrl/internal/telemetry"
)

// This file is the session's execution engine (WithShards(P), P >= 1): the
// cluster is partitioned into P contiguous server groups, each owning its
// own event lane (timers, FCFS queues, power-mode transitions, incremental
// reliability partial sums). Shard 0 runs inline on the coordinator; shards
// 1..P-1 each have a worker goroutine, so P=1 is one shard with no workers
// and no barrier. The hierarchical model makes this sound: below the global
// allocation tier, servers never interact — every event a server schedules
// lands on that same server — so between two arrival decision epochs the P
// lanes are fully independent. The global agent's decision epoch is the only
// synchronization point. Each epoch runs as one barrier-delimited phase:
//
//	release -> workers: [commit previous dispatch] + run own lane up to the
//	           epoch instant + [refresh own view range / pre-encode]
//	join    -> coordinator: replay merged observation logs (change feed for
//	           the DRL reward integral, completions for metrics + observer,
//	           transitions), then allocate the arrival against the gathered
//	           state, and pend its dispatch for the next phase.
//
// Determinism: lanes are deterministic sequential simulators, per-shard RNG
// chains are derived in ascending server order at every P, and every merged
// replay orders records by (time, shard index) — a pure function of the
// simulation, never of goroutine scheduling. Results at a fixed P are
// bitwise reproducible run to run, and equal to P=1 within the tolerance
// documented in DESIGN.md §12 (exactly equal whenever no two shards fire an
// observable event at the same instant, which has probability ~1 under
// continuous arrival processes).

// infTime bounds an unbounded phase; every schedulable instant is finite
// (sim.Schedule rejects NaN and nothing schedules at +Inf), so running
// "before infTime" drains a lane.
const infTime = sim.Time(math.MaxFloat64)

// runMode selects what a worker does with its lane during one phase.
type runMode uint8

const (
	// runBefore fires events strictly before cmd.until (epoch phases: the
	// dispatch at the epoch instant must precede same-instant lane events,
	// so an arrival wins every timestamp tie).
	runBefore runMode = iota
	// runThrough fires events at or before cmd.until and advances the lane
	// clock to exactly cmd.until (StepUntil's closing phase).
	runThrough
	// runAll drains the lane (closing phases of Drain).
	runAll
)

// dispatch is one allocated arrival awaiting commitment: the target shard
// executes it at the start of the next phase, which keeps the Submit's
// cascade (queueing, wake-up, job start, DPM arrival epoch) inside the
// parallel region instead of on the coordinator's critical path.
type dispatch struct {
	job    *cluster.Job
	target int // server index
	shard  int // target's shard
	at     sim.Time
}

// phaseCmd is the coordinator-published work order of one phase. It is
// written before the barrier release and read after the workers observe it,
// so it needs no lock of its own. d carries the dispatches this phase
// commits, sorted by instant; without faults at most one is ever in flight,
// but crash requeues can schedule a new dispatch before an uncommitted one,
// so the in-flight set is a list.
type phaseCmd struct {
	mode    runMode
	until   sim.Time
	refresh bool // refresh gather-view ranges (and pre-encode for DRL)
	d       []dispatch
	stop    bool
}

// barrierSpin is how long either side of the epoch barrier busy-waits
// before it parks in the Go scheduler. It is sized to cover the tail of one
// phase, not its mean: a steady-state phase takes a few microseconds, but
// the occasional one (a GC assist, a DRL training step, a burst of
// completions to replay) runs far longer. Every park costs a scheduler
// round trip on both sides, and with only as many Ps as goroutines a
// readied goroutine can queue behind a spinner. An idle stretch (the caller
// between StepUntil calls) costs at most one budget of spinning before the
// workers park. The budget is wall time rather than a load count so that it
// means the same on every CPU and under -race, whose instrumented atomics
// are two orders of magnitude slower.
const barrierSpin = 400 * time.Microsecond

// barrierSpinCheck is how many loads a spinning waiter makes between clock
// reads; a wait that ends within the first stretch never reads the clock.
const barrierSpinCheck = 64

// barrierPollEvery is the generation cadence at which the workers of a
// session serving live telemetry park without spinning (every few
// milliseconds of epochs). While both sides spin, no P ever runs the
// scheduler's idle path, so nothing polls the network but sysmon, every
// 10 ms at best, and a readied HTTP goroutine then also waits for a spinner
// to be preempted. A parked worker's P polls the network at once and serves
// the scrape; the cost is one slow release per cadence.
const barrierPollEvery = 256

// spinWait bounds one busy wait of the epoch barrier by wall time.
type spinWait struct {
	n     int
	start time.Time
}

// more reports whether the waiter should make another load. A zero budget
// never spins: that is the budget of an oversubscribed box, where
// GOMAXPROCS cannot hold the coordinator and every worker at once and each
// nanosecond of spin is taken from a runnable goroutine queued behind the
// spinner. more is small enough to inline, so a spin load costs about one
// nanosecond.
func (w *spinWait) more(budget time.Duration) bool {
	if w.n++; w.n%barrierSpinCheck != 0 {
		return budget > 0
	}
	return w.check(budget)
}

// check is more's clock read, once every barrierSpinCheck loads.
func (w *spinWait) check(budget time.Duration) bool {
	if w.start.IsZero() {
		w.start = time.Now()
		return true
	}
	return time.Since(w.start) < budget
}

// Coordinator handoff states of one phase (epochBarrier.state).
const (
	phaseRunning uint32 = iota // workers released, not all arrived
	phaseParked                // coordinator gave up spinning, blocks on wake
	phaseDone                  // the last worker arrived
)

// epochBarrier is the two-sided synchronization of one phase. Both sides
// spin on an atomic before they park, so a steady-state epoch never enters
// the Go scheduler:
//
//   - release bumps a generation counter the workers spin on; it touches
//     mu/cond only when sleepers says a worker actually parked.
//   - arrive counts the workers in; the last one swaps state to phaseDone
//     and sends the wake token only if it saw phaseParked. join parks only
//     after a successful CAS from phaseRunning to phaseParked, so exactly
//     one of "the last arriver sees parked" and "join sees done" happens,
//     and the one-slot token is never lost or doubled.
//
// No worker wakeup is lost: a parking worker runs sleepers.Add(1) and then
// gen.Load under mu; release runs gen.Add(1) and then sleepers.Load. Go's
// atomics are sequentially consistent, so in their single total order
// either the worker's gen.Load follows the gen.Add (it sees the new
// generation and does not wait) or release's sleepers.Load follows the
// sleepers.Add (release takes mu, which the worker holds until cond.Wait
// has enqueued it, and broadcasts). A stale nonzero sleepers costs one
// spurious broadcast, never a missed one.
type epochBarrier struct {
	p         int           // worker count (shards 1..P-1; shard 0 is the coordinator's)
	spin      time.Duration // spin budget per wait, either side
	pollEvery uint64        // park workers without spinning every pollEvery generations (0: never)
	gen       atomic.Uint64
	arrived   atomic.Int32
	state     atomic.Uint32
	wake      chan struct{}
	sleepers  atomic.Int32
	mu        sync.Mutex
	cond      *sync.Cond
}

func (b *epochBarrier) init(p int) {
	b.p = p
	b.wake = make(chan struct{}, 1)
	b.cond = sync.NewCond(&b.mu)
	// Spinning only helps when the coordinator and every worker can hold a
	// P at once; on an oversubscribed box both sides park at once.
	if runtime.GOMAXPROCS(0) > p {
		b.spin = barrierSpin
	}
}

// release publishes the new generation and wakes parked workers. The
// arrival count and handoff state are reset first — no worker from the
// previous phase can still arrive, because the coordinator joined it.
func (b *epochBarrier) release() {
	b.arrived.Store(0)
	b.state.Store(phaseRunning)
	b.gen.Add(1)
	if b.sleepers.Load() > 0 {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

// await blocks until the generation moves past gen and returns the new one.
func (b *epochBarrier) await(gen uint64) uint64 {
	if b.pollEvery == 0 || gen%b.pollEvery != 0 {
		var w spinWait
		for w.more(b.spin) {
			if g := b.gen.Load(); g != gen {
				return g
			}
		}
	}
	b.mu.Lock()
	b.sleepers.Add(1)
	for b.gen.Load() == gen {
		b.cond.Wait()
	}
	b.sleepers.Add(-1)
	g := b.gen.Load()
	b.mu.Unlock()
	return g
}

// arrive signals this worker's phase completion; the last one hands the
// phase back to the coordinator.
func (b *epochBarrier) arrive() {
	if b.arrived.Add(1) == int32(b.p) && b.state.Swap(phaseDone) == phaseParked {
		b.wake <- struct{}{}
	}
}

// join blocks the coordinator until every worker arrived.
func (b *epochBarrier) join() {
	var w spinWait
	for w.more(b.spin) {
		if b.state.Load() == phaseDone {
			return
		}
	}
	if b.state.CompareAndSwap(phaseRunning, phaseParked) {
		<-b.wake
	}
}

// shardRunner drives a session: P lanes (P-1 of them on workers), the epoch
// barrier, the merged-replay machinery, and the gathered allocation view.
type shardRunner struct {
	s   *Session
	p   int
	bar epochBarrier
	cmd phaseCmd

	// merger replays the merged change feed through one global bookkeeping
	// sequence for the DRL reward integral (nil without an agent).
	merger *cluster.Merger

	// view is the shared gather view: shard workers refresh disjoint server
	// ranges during refresh phases, so "merging" the per-shard view buffers
	// is free — they alias one backing array.
	view cluster.View

	// clock is the engine clock: the max lane clock, bumped at every join.
	// It never runs behind any server's energy-integration watermark, so
	// barrier-time snapshots and checkpoints integrate consistently.
	clock sim.Time

	// pends holds the allocated-but-uncommitted dispatches, sorted by
	// instant (stable on ties); each is executed by its target shard in the
	// next phase whose until covers it. Fault-free runs keep at most one
	// entry — arrival instants are monotone — but a crash requeue can put a
	// new dispatch ahead of an uncommitted one, so this is a list (a single
	// slot would drop the overtaken dispatch). commit is the reusable
	// per-phase buffer handed to the workers through phaseCmd.
	pends  []dispatch
	commit []dispatch

	// onDone/onTrans/onInterrupt/onMigrate/onDegrade/onMaint are the replay
	// callbacks, bound once — passing a method value per round would
	// allocate.
	onDone      func(sim.Time, *cluster.Job)
	onTrans     func(sim.Time, int, cluster.PowerState, cluster.PowerState)
	onInterrupt func(sim.Time, *cluster.Job)
	onMigrate   func(sim.Time, *cluster.Job)
	onDegrade   func(sim.Time, int, float64)
	onMaint     func(sim.Time, int)

	// Allocator strategy flags (classified once at construction).
	needsView bool // allocator reads server state: refresh the view each epoch
	fastLL    bool // least-loaded via the incremental per-shard LoadIndex
	preEncode bool // DRL: workers pre-encode their server ranges

	// cpEvery is the checkpoint-series interval at P=1 (0 otherwise), and
	// cpStop the completed-job count at which the running phase stops: the
	// count that makes the collector's next checkpoint due. Stopping there
	// lets the coordinator record the checkpoint at its completion instant
	// (see runInline). At P>=2 both stay 0 and checkpoints are stamped at
	// the barrier instant (DESIGN.md §12).
	cpEvery int
	cpStop  int64

	// etrace records per-phase timing spans (nil unless WithEpochTrace):
	// the coordinator opens a span before each barrier release, each worker
	// writes only its own Shards slot between release and arrive, and the
	// coordinator reads everything after join — the barrier's generation
	// counter and arrival handoff order the writes, so the ring needs no
	// locks (see telemetry.EpochRing).
	etrace *telemetry.EpochRing

	stopped bool
}

// runPhase executes one phase's work for shard id: commit the dispatches
// that target this shard, step the lane, refresh the local view range. Shard
// 0 runs on the coordinator itself (saving one goroutine handoff per phase);
// shards 1..P-1 run in their workers. It reports whether the lane run
// stopped early at a checkpoint (P=1 only); calling it again resumes the
// phase. Span durations accumulate across such resumptions.
func (r *shardRunner) runPhase(id int) bool {
	cl := r.s.cl
	lane := cl.Lane(id)
	c := &r.cmd
	var ps *telemetry.PhaseSpan
	var t0 int64
	if r.etrace != nil {
		ps = &r.etrace.Cur().Shards[id]
		t0 = r.etrace.NowNs()
		if ps.StartNs == 0 {
			ps.StartNs = t0 // the coordinator's inline shard never waits
		}
	}
	for i := range c.d {
		d := &c.d[i]
		if d.shard != id {
			continue
		}
		// Quiesce the lane before the dispatch instant first: an earlier
		// commit this phase may have scheduled events below d.at. Fault-free
		// runs commit one dispatch per phase with the lane already run
		// before d.at, so the extra RunBefore is a no-op there.
		lane.RunBefore(d.at)
		lane.AdvanceTo(d.at)
		cl.Submit(d.job, d.target)
	}
	if ps != nil {
		now := r.etrace.NowNs()
		ps.CommitNs += now - t0
		t0 = now
	}
	stopped := r.runLane(lane, c.mode, c.until)
	if stopped {
		// A checkpoint stop happens only at P=1, where no worker reads the
		// command: the resumed phase has nothing left to commit.
		c.d = nil
	}
	if ps != nil {
		now := r.etrace.NowNs()
		ps.RunNs += now - t0
		t0 = now
	}
	if !stopped && c.refresh {
		lo, hi := cl.ShardRange(id)
		cl.SnapshotRange(&r.view, lo, hi)
		if r.preEncode {
			r.s.agent.PreEncodeServers(&r.view, lo, hi)
		}
	}
	if ps != nil {
		ps.RefreshNs += r.etrace.NowNs() - t0
	}
	return stopped
}

// runLane fires lane's events before until, or at or before it under
// runThrough, which also leaves the lane clock at until. With a checkpoint
// stop armed (P=1 only) it steps event by event and returns true right after
// the event that brings the completed-job count to cpStop, leaving the rest
// of the span to the resumed phase.
func (r *shardRunner) runLane(lane *sim.Simulator, mode runMode, until sim.Time) bool {
	if r.cpStop > 0 {
		for {
			next, ok := lane.PeekTime()
			if !ok || next > until || (next == until && mode != runThrough) {
				break
			}
			lane.Step()
			if r.s.cl.Completed() >= r.cpStop {
				return true
			}
		}
	}
	if mode == runThrough {
		lane.Run(until)
	} else {
		lane.RunBefore(until)
	}
	return false
}

// worker is one lane's goroutine (shards 1..P-1): wait for a phase, run it,
// arrive at the barrier.
func (r *shardRunner) worker(id int) {
	var gen uint64
	for {
		var waitStart int64
		if r.etrace != nil {
			waitStart = r.etrace.NowNs()
		}
		gen = r.bar.await(gen)
		if r.cmd.stop {
			r.bar.arrive()
			return
		}
		if r.etrace != nil {
			// The span was opened by the coordinator before the release this
			// await observed; only this worker touches its Shards slot.
			ps := &r.etrace.Cur().Shards[id]
			ps.StartNs = waitStart
			ps.WaitNs = r.etrace.NowNs() - waitStart
		}
		r.runPhase(id)
		r.bar.arrive()
	}
}

// round runs one barrier-delimited phase and replays the merged observation
// logs. Pending dispatches are attached when the phase covers their instant
// (checked explicitly so a bounded StepUntil never commits a dispatch beyond
// its horizon). The coordinator overlaps shard 0's phase work with the
// workers' before joining; at P=1 it runs the phase inline instead.
func (r *shardRunner) round(mode runMode, until sim.Time, refresh bool) {
	r.cmd = phaseCmd{mode: mode, until: until, refresh: refresh}
	if n := r.coveredPends(until); n > 0 {
		r.commit = append(r.commit[:0], r.pends[:n]...)
		r.pends = r.pends[:copy(r.pends, r.pends[n:])]
		r.cmd.d = r.commit
	}
	if r.etrace != nil {
		// Open the span before the release so workers can stamp their slots
		// (runMode and the trace's mode constants coincide by construction).
		r.etrace.Begin(float64(until), uint8(mode))
	}
	if r.p == 1 {
		r.runInline()
	} else {
		r.bar.release()
		r.runPhase(0)
		r.bar.join()
	}
	r.replay()
}

// runInline runs a P=1 phase on the coordinator. With a checkpoint series it
// arms the stop at the completion that makes the collector's next checkpoint
// due — every - completed%every completions into the phase — then replays
// the logs at that instant, so the checkpoint is recorded at the lane clock,
// which is the completion instant, and resumes the phase. At P>=2 halting one
// lane would reorder the merged replay, so there checkpoints keep the
// barrier instant.
func (r *shardRunner) runInline() {
	for {
		if r.cpEvery > 0 {
			done := r.s.col.Completed()
			r.cpStop = int64(done + r.cpEvery - done%r.cpEvery)
		}
		if !r.runPhase(0) {
			return
		}
		r.replay()
	}
}

// replay advances the engine clock to the most advanced lane and drains the
// observation logs.
func (r *shardRunner) replay() {
	if c := r.s.cl.Clock(); c > r.clock {
		r.clock = c
	}
	if r.etrace == nil {
		r.drainLogs()
		return
	}
	sp := r.etrace.Cur()
	t0 := r.etrace.NowNs()
	if sp.ReplayStartNs == 0 {
		sp.ReplayStartNs = t0
	}
	r.drainLogs()
	sp.ReplayNs += r.etrace.NowNs() - t0
}

// drainLogs drains the merged observation streams on the coordinator: the
// change feed into the DRL reward integral, completions into the collector,
// the observer hooks, and the job pool, transitions into the observer. All
// shards are quiescent here, so user callbacks may take a Session snapshot.
func (r *shardRunner) drainLogs() {
	s := r.s
	if r.merger != nil {
		s.cl.DrainChanges(r.merger)
	}
	s.cl.DrainDones(r.onDone)
	if r.onTrans != nil {
		s.cl.DrainTrans(r.onTrans)
	}
	if r.onMaint != nil {
		// Maintenance openings replay before the migration stream so an
		// observer hears OnDrainStart before the window's migrated jobs.
		s.cl.DrainMaints(r.onMaint)
	}
	if r.onDegrade != nil {
		s.cl.DrainDegrades(r.onDegrade)
	}
	if r.onInterrupt != nil {
		// Crash evictions replay last: a job completed at the same instant its
		// server died was already running, so its completion wins the tie and
		// the eviction stream only carries genuinely interrupted work.
		s.cl.DrainInterrupts(r.onInterrupt)
	}
	if r.onMigrate != nil {
		s.cl.DrainMigrates(r.onMigrate)
	}
}

// guard bounds total event count relative to ingested jobs across all lanes,
// protecting callers from a runaway self-rescheduling model. Every job spawns
// a bounded number of follow-up events; 64 per job is a generous ceiling.
func (r *shardRunner) guard() error {
	var fired int64
	for i := 0; i < r.p; i++ {
		fired += r.s.cl.Lane(i).Fired()
	}
	budget := 64*r.s.ingested + 1024
	if r.s.fm != nil {
		// Fault chains fund their own events: crashes and repairs each fire a
		// timer, and every requeue replays a dispatch cascade.
		budget += 64*r.s.retried + 16*r.s.cl.Failures()
	}
	if fired > budget {
		return fmt.Errorf("hierdrl: event budget exceeded (%d events for %d jobs): runaway model",
			fired, r.s.ingested)
	}
	return nil
}

// anyEvents reports whether any lane still has pending events.
func (r *shardRunner) anyEvents() bool {
	for i := 0; i < r.p; i++ {
		if r.s.cl.Lane(i).Pending() > 0 {
			return true
		}
	}
	return false
}

// coveredPends returns how many leading entries of the sorted in-flight
// dispatch list fall at or before until (eligible to commit this phase).
func (r *shardRunner) coveredPends(until sim.Time) int {
	n := 0
	for n < len(r.pends) && r.pends[n].at <= until {
		n++
	}
	return n
}

// nextEventTime returns the earliest pending instant across all lanes
// (infTime when every lane is idle).
func (r *shardRunner) nextEventTime() sim.Time {
	h := infTime
	for i := 0; i < r.p; i++ {
		if at, ok := r.s.cl.Lane(i).PeekTime(); ok && at < h {
			h = at
		}
	}
	return h
}

// step advances the engine by one decision epoch: quiesce every lane up to
// the next arrival's instant, allocate it against the gathered state, and
// pend its dispatch. With no arrivals left it runs one closing phase that
// commits the last dispatch and drains the lanes. It reports whether the
// engine did (or still has) work.
func (r *shardRunner) step() (bool, error) {
	s := r.s
	if err := s.ctxErr(); err != nil {
		return false, err
	}
	if err := r.guard(); err != nil {
		return false, err
	}
	if s.qhead < len(s.queue) {
		at := sim.Time(s.queue[s.qhead].Arrival)
		if r.clock > at {
			// A late submission: dispatch at the current clock (latency
			// still counts from the declared arrival).
			at = r.clock
		}
		if n := len(r.pends); n > 0 && r.pends[n-1].at > at {
			// Decision instants must never run backwards (the DRL reward
			// integrator advances to each one). A fault requeue can put a
			// re-arrival at the head that precedes an uncommitted dispatch's
			// instant — committed ones are already covered by r.clock — so
			// clamp to the newest pended instant. Fault-free runs never
			// requeue and this is a no-op.
			at = r.pends[n-1].at
		}
		r.round(runBefore, at, r.needsView)
		if s.fm != nil && s.cl.UnavailableServers() == s.cl.M() {
			// Every server is down or draining at the dispatch instant: run
			// the lanes through the earliest availability change (a repair,
			// or a draining server running dry) instead of allocating into a
			// dead cluster. The arrival re-dispatches on the next step
			// against the updated state.
			r.round(runThrough, s.cl.NextAvailAt(), false)
			return true, nil
		}
		r.dispatchNext(at)
		return true, nil
	}
	if s.fm != nil {
		// With failure clocks armed the lanes never drain — every server
		// always holds a crash or repair timer — so runAll would spin
		// forever. Closing phases instead advance event by event until the
		// accounting condition holds: every ingested job completed or lost.
		if len(r.pends) == 0 && s.drained() {
			return false, nil
		}
		h := r.nextEventTime()
		if len(r.pends) > 0 && r.pends[0].at < h {
			h = r.pends[0].at
		}
		if h == infTime {
			return false, nil
		}
		r.round(runThrough, h, false)
		return true, nil
	}
	if len(r.pends) > 0 || r.anyEvents() {
		r.round(runAll, infTime, false)
		return true, nil
	}
	return false, nil
}

// dispatchNext pops the head arrival, allocates it at instant at, and pends
// the dispatch for the next phase.
func (r *shardRunner) dispatchNext(at sim.Time) {
	s := r.s
	var sp *telemetry.EpochSpan
	if r.etrace != nil {
		sp = r.etrace.Cur()
		sp.AllocStartNs = r.etrace.NowNs()
	}
	tj := s.queue[s.qhead]
	s.popHead()
	j := s.takeJob(tj)
	r.view.Now = at
	var target int
	switch {
	case r.fastLL:
		// The per-shard tournament trees were maintained inside the lane
		// workers; the decision collapses to a P-way reduce over shard
		// minima — bitwise the same argmin as the O(M) snapshot scan.
		target = s.cl.LeastCommitted()
	case r.preEncode:
		// Group features were gathered by the shard workers in parallel;
		// the epoch evaluates all K Sub-Q heads over them as one batched
		// GEMM (QNetwork.QValuesInto), bitwise the same as Allocate.
		target = s.agent.AllocatePreEncoded(j, &r.view)
	default:
		target = s.alloc.Allocate(j, &r.view)
	}
	if s.fm != nil && !s.cl.Accepting(target) {
		// State-blind allocators (round-robin, random, a stale DRL head) may
		// still pick a dead or draining server; remap to the next accepting
		// one. The all-unavailable case was stalled out before dispatch, so
		// NextUp always finds one.
		target = s.cl.NextUp(target)
	}
	r.pends = append(r.pends, dispatch{job: j, target: target, shard: s.cl.ShardOf(target), at: at})
	// Keep the in-flight list sorted by instant, stable on ties. A crash
	// requeue can dispatch before an uncommitted earlier allocation (its
	// re-arrival may precede the pending dispatch's instant), so the new
	// entry is not always the maximum.
	for i := len(r.pends) - 1; i > 0 && r.pends[i].at < r.pends[i-1].at; i-- {
		r.pends[i], r.pends[i-1] = r.pends[i-1], r.pends[i]
	}
	if sp != nil {
		sp.AllocNs = r.etrace.NowNs() - sp.AllocStartNs
	}
}

// drainAll runs decision epochs until every submitted job has completed and
// every lane is idle.
func (r *shardRunner) drainAll() error {
	for {
		more, err := r.step()
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
	}
}

// stepUntil dispatches every arrival reachable at or before t and then runs
// every lane through t, leaving the engine clock at exactly t. Arrivals
// whose dispatch instant falls beyond t (late submissions against an already
// advanced clock) stay pending for a later call.
func (r *shardRunner) stepUntil(t sim.Time) error {
	s := r.s
	for s.qhead < len(s.queue) && sim.Time(s.queue[s.qhead].Arrival) <= t && r.clock <= t {
		if err := s.ctxErr(); err != nil {
			return err
		}
		if err := r.guard(); err != nil {
			return err
		}
		at := sim.Time(s.queue[s.qhead].Arrival)
		if r.clock > at {
			at = r.clock
		}
		if n := len(r.pends); n > 0 && r.pends[n-1].at > at {
			// Same monotone-decision clamp as step(): a fault requeue at the
			// head must not dispatch before an uncommitted earlier decision.
			at = r.pends[n-1].at
		}
		if at > t {
			// The clamped instant fell beyond the horizon; the arrival stays
			// pending for a later call, like a late submission.
			break
		}
		r.round(runBefore, at, r.needsView)
		if s.fm != nil && s.cl.UnavailableServers() == s.cl.M() {
			// All servers unavailable at the dispatch instant: advance to the
			// earliest availability change if it lies within the horizon, else
			// leave the arrival pending for a later call (like a late
			// submission).
			ra := s.cl.NextAvailAt()
			if ra > t {
				break
			}
			r.round(runThrough, ra, false)
			continue
		}
		r.dispatchNext(at)
	}
	if err := s.ctxErr(); err != nil {
		return err
	}
	if r.clock <= t {
		r.round(runThrough, t, false)
		if t > r.clock {
			r.clock = t
		}
	}
	return nil
}

// snapshotRefresh refreshes the [lo, hi) ranges of a monitoring view on the
// coordinator. All lanes are quiescent between phases, so the serial walk is
// race-free (this is a monitoring surface, not the per-epoch gather path).
func (r *shardRunner) snapshotRefresh(v *cluster.View) {
	s := r.s
	s.cl.SnapshotPrepare(v)
	v.Now = r.clock
	s.cl.SnapshotRange(v, 0, s.cl.M())
}

// stop terminates the lane workers (there are none at P=1). Idempotent.
func (r *shardRunner) stop() {
	if r.stopped || r.p == 1 {
		return
	}
	r.stopped = true
	r.cmd = phaseCmd{stop: true}
	r.bar.release()
	r.bar.join()
}
