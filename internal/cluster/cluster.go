package cluster

import (
	"fmt"
	"math"
	"math/bits"

	"hierdrl/internal/fault"
	"hierdrl/internal/sim"
)

// Config parameterizes a cluster of M servers. By default the cluster is
// homogeneous (every server gets Server verbatim); a non-empty Classes list
// partitions the machines into heterogeneous server classes instead.
type Config struct {
	// M is the number of physical servers (paper evaluates 30 and 40).
	M int
	// Server is the per-server configuration. With Classes set it remains the
	// template every class derives from (capacity, transition times, initial
	// state), each class overriding only speed and power curve.
	Server ServerConfig
	// HotSpotThreshold is the utilization above which the reliability
	// objective starts penalizing a server (hot-spot avoidance, Sec. V-A).
	HotSpotThreshold float64
	// Classes, when non-empty, declares heterogeneous server classes assigned
	// to contiguous id ranges in declaration order (class 0 gets servers
	// [0, Count0), class 1 the next Count1 ids, and so on). The counts must
	// sum to exactly M. An empty list is the historical homogeneous cluster,
	// bit for bit.
	Classes []ServerClass
}

// ServerClass describes one heterogeneous slice of the cluster: Count
// machines sharing a speed factor and a power curve. All other per-server
// parameters (capacity, Ton/Toff, initial state) come from Config.Server.
type ServerClass struct {
	// Name labels the class in docs and tooling (optional).
	Name string
	// Count is how many servers belong to this class (must be positive).
	Count int
	// Speed is the relative execution-speed factor: a job of nominal duration
	// D runs for D/Speed seconds on this class. Zero means 1.0 (nominal);
	// 1.0 leaves service times bitwise unchanged (IEEE x/1.0 == x).
	Speed float64
	// Power is the class's power curve. A zero model inherits Config.Server's
	// power model.
	Power PowerModel
}

// DefaultConfig returns the paper's cluster calibration with M servers.
func DefaultConfig(m int) Config {
	return Config{M: m, Server: DefaultServerConfig(), HotSpotThreshold: 0.8}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.M <= 0 {
		return fmt.Errorf("cluster: M must be positive, got %d", c.M)
	}
	if c.HotSpotThreshold <= 0 || c.HotSpotThreshold >= 1 {
		return fmt.Errorf("cluster: HotSpotThreshold must be in (0,1), got %v", c.HotSpotThreshold)
	}
	if err := c.Server.Validate(); err != nil {
		return err
	}
	if len(c.Classes) == 0 {
		return nil
	}
	total := 0
	for i, cl := range c.Classes {
		if cl.Count <= 0 {
			return fmt.Errorf("cluster: class %d (%q) Count must be positive, got %d", i, cl.Name, cl.Count)
		}
		if cl.Speed < 0 || math.IsNaN(cl.Speed) || math.IsInf(cl.Speed, 0) {
			return fmt.Errorf("cluster: class %d (%q) Speed must be a non-negative finite factor, got %v", i, cl.Name, cl.Speed)
		}
		if cl.Power != (PowerModel{}) {
			if err := cl.Power.Validate(); err != nil {
				return fmt.Errorf("cluster: class %d (%q): %w", i, cl.Name, err)
			}
		}
		total += cl.Count
	}
	if total != c.M {
		return fmt.Errorf("cluster: class counts sum to %d but M=%d", total, c.M)
	}
	return nil
}

// serverConfigFor derives server i's effective configuration: the shared
// Server template with its class's speed factor and power curve applied.
// Classes own contiguous id ranges in declaration order; with no classes the
// template is returned verbatim (homogeneous cluster).
func (c Config) serverConfigFor(i int) ServerConfig {
	sc := c.Server
	if len(c.Classes) == 0 {
		return sc
	}
	lo := 0
	for _, cl := range c.Classes {
		if i < lo+cl.Count {
			if cl.Speed != 0 {
				sc.Speed = cl.Speed
			}
			if cl.Power != (PowerModel{}) {
				sc.Power = cl.Power
			}
			return sc
		}
		lo += cl.Count
	}
	panic(fmt.Sprintf("cluster: server %d beyond class ranges (sum %d)", i, lo))
}

// shardGroup is one horizontal partition of the cluster: a contiguous server
// range [lo, hi) stepped by its own event lane, carrying its own incremental
// aggregates so no cross-shard cache line is written on the hot path. A
// one-shard cluster is one group over all servers.
type shardGroup struct {
	sm     *sim.Simulator
	lo, hi int

	// Incremental aggregates over [lo, hi), all indexed shard-locally.
	totalPower   float64
	jobsInSystem int
	prevPower    []float64
	prevJobs     []int

	// Per-shard reliability partial state: reliTerms caches every local
	// server's per-resource hot-spot penalty term, reliHot is a bitmask of
	// local servers with a non-zero term, and reliSum memoizes the sparse
	// ascending-order partial sum (recomputed only when reliDirty). The
	// global objective is a fixed-shard-order reduction of these partials.
	reliTerms []float64
	reliHot   []uint64
	reliDirty bool
	reliSum   float64

	// jobs is a counting multiset of local jobs-in-system values backing an
	// O(1) running per-shard maximum.
	jobs jobsMultiset

	completed int64
	submitted int64

	// Fault-layer bookkeeping, written only by the shard's own lane (crash
	// and repair events run on it): down counts currently-down local servers
	// (crashed or powered off for maintenance), draining counts local servers
	// with an open maintenance window still finishing jobs, fails counts
	// local fault onsets (crashes, degrade windows, maintenance windows).
	down     int
	draining int
	fails    int64

	// idx, when enabled, maintains the least-committed-server tournament
	// tree over this shard (see LoadIndex).
	idx *LoadIndex

	// Observation logs. Exactly one goroutine owns a shard during a phase,
	// so appends are single-writer; the coordinator drains them at the
	// epoch barrier (the barrier's synchronization orders the accesses).
	changes    []ChangeRec
	dones      []DoneRec
	trans      []TransRec
	interrupts []InterruptRec
	migrates   []InterruptRec
	degrades   []DegradeRec
	maints     []MaintRec
}

// Cluster aggregates M servers across one or more shard groups, maintains
// incremental totals (power draw, jobs in system, reliability partial sums),
// and exposes the state snapshot the allocation tiers consume.
type Cluster struct {
	cfg     Config
	servers []*Server
	shards  []shardGroup
	shardOf []int32 // server id -> shard index

	// Server events append to per-shard observation logs (shard.go) that
	// the coordinator replays at each epoch barrier. Completions and fault
	// events always log; logChanges (set by NewMerger) and logTransitions
	// (set by LogTransitions) gate the two streams that need a consumer, so
	// runs without one log nothing there.
	logChanges     bool
	logTransitions bool

	// faults records that EnableFaults installed failure clocks; faultKind
	// and degradeFactor record the installed model's class.
	faults        bool
	faultKind     fault.Kind
	degradeFactor float64
	// dynSpeed marks that effective speeds can change mid-run (fail-slow), so
	// snapshot refreshes must rewrite View.Speed instead of filling it once.
	dynSpeed bool

	// drainCur is the reusable per-shard cursor scratch of the barrier-time
	// log merges (see shard.go).
	drainCur []int
}

// NewSharded builds a cluster partitioned into len(lanes) contiguous shard
// groups, server i belonging to the lane of its shard. dpmFactory is invoked
// once per server index to produce that server's local power-management
// policy (the paper's distributed local tier: one independent manager per
// machine), in ascending server order regardless of the partitioning, so an
// RNG-splitting factory draws the same construction-time sequence at every
// shard count.
func NewSharded(cfg Config, lanes []*sim.Simulator, dpmFactory func(serverID int) DPMPolicy) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if dpmFactory == nil {
		return nil, fmt.Errorf("cluster: nil DPM factory")
	}
	p := len(lanes)
	if p <= 0 {
		return nil, fmt.Errorf("cluster: no event lanes")
	}
	if p > cfg.M {
		return nil, fmt.Errorf("cluster: %d lanes for %d servers", p, cfg.M)
	}
	for i, sm := range lanes {
		if sm == nil {
			return nil, fmt.Errorf("cluster: nil lane %d", i)
		}
	}
	c := &Cluster{
		cfg:     cfg,
		servers: make([]*Server, cfg.M),
		shards:  make([]shardGroup, p),
		shardOf: make([]int32, cfg.M),
	}
	// Balanced contiguous ranges: the first M%P shards take one extra server.
	base, rem := cfg.M/p, cfg.M%p
	lo := 0
	for s := range c.shards {
		n := base
		if s < rem {
			n++
		}
		g := &c.shards[s]
		g.sm = lanes[s]
		g.lo, g.hi = lo, lo+n
		g.prevPower = make([]float64, n)
		g.prevJobs = make([]int, n)
		g.reliTerms = make([]float64, n*NumResources)
		g.reliHot = make([]uint64, (n+63)/64)
		g.jobs.init(n) // every server starts empty
		for i := g.lo; i < g.hi; i++ {
			c.shardOf[i] = int32(s)
		}
		lo += n
	}
	for i := 0; i < cfg.M; i++ {
		dpm := dpmFactory(i)
		g := &c.shards[c.shardOf[i]]
		s, err := NewServer(i, g.sm, cfg.serverConfigFor(i), dpm)
		if err != nil {
			return nil, fmt.Errorf("cluster: server %d: %w", i, err)
		}
		s.SetHooks(c.serverUpdated, c.jobDone)
		s.SetTransitionHook(c.serverTransition)
		c.servers[i] = s
		g.prevPower[i-g.lo] = s.Power()
		g.totalPower += s.Power()
	}
	return c, nil
}

// M returns the number of servers.
func (c *Cluster) M() int { return c.cfg.M }

// Server returns server i.
func (c *Cluster) Server(i int) *Server { return c.servers[i] }

// Shards returns the number of shard groups.
func (c *Cluster) Shards() int { return len(c.shards) }

// ShardRange returns the [lo, hi) server range of shard s.
func (c *Cluster) ShardRange(s int) (lo, hi int) { return c.shards[s].lo, c.shards[s].hi }

// ShardOf returns the shard index owning server i.
func (c *Cluster) ShardOf(i int) int { return int(c.shardOf[i]) }

// Lane returns shard s's simulator.
func (c *Cluster) Lane(s int) *sim.Simulator { return c.shards[s].sm }

// Clock returns the most advanced lane clock — with one shard, simply the
// clock. (Individual lanes lag behind between epoch barriers.)
func (c *Cluster) Clock() sim.Time {
	now := c.shards[0].sm.Now()
	for i := 1; i < len(c.shards); i++ {
		if t := c.shards[i].sm.Now(); t > now {
			now = t
		}
	}
	return now
}

// LogTransitions turns on the power-mode transition log (TransRec entries,
// replayed through DrainTrans). Call it before any event fires, when a
// transition observer exists.
func (c *Cluster) LogTransitions() { c.logTransitions = true }

// Submit dispatches job j to the given server at the current time (of the
// server's lane).
func (c *Cluster) Submit(j *Job, server int) {
	if server < 0 || server >= len(c.servers) {
		panic(fmt.Sprintf("cluster: Submit to invalid server %d of %d", server, len(c.servers)))
	}
	// The counter is shard-local: Submit runs on the target server's lane,
	// and one barrier phase may commit dispatches on several lanes at once.
	c.shards[c.shardOf[server]].submitted++
	c.servers[server].Submit(j)
}

// EnableFaults installs per-server fault clocks of the given kind and
// schedules each server's first onset event. clockFor is invoked in ascending
// server order; a nil clock exempts that server. degradeFactor is the
// fail-slow speed multiplier (ignored for other kinds). Call once, before any
// event fires.
func (c *Cluster) EnableFaults(clockFor func(serverID int) fault.Clock, kind fault.Kind, degradeFactor float64) {
	c.faults = true
	c.faultKind = kind
	c.degradeFactor = degradeFactor
	if kind == fault.KindDegrade {
		c.dynSpeed = true
	}
	hooks := FaultHooks{
		OnInterrupt: c.jobInterrupted,
		OnMigrate:   c.jobMigrated,
		OnFault:     c.serverFault,
		OnDegrade:   c.serverDegraded,
		OnDrain:     c.serverDrain,
	}
	for i, s := range c.servers {
		s.SetFaultClock(clockFor(i), kind, degradeFactor, hooks)
	}
}

// FaultsEnabled reports whether EnableFaults has been called.
func (c *Cluster) FaultsEnabled() bool { return c.faults }

// FaultKind returns the installed fault model's class (KindCrash when no
// faults are enabled).
func (c *Cluster) FaultKind() fault.Kind { return c.faultKind }

// serverFault maintains the shard-local down/failure counters. It runs on
// the failing server's own lane (single-writer), before the eviction
// cascade. A maintenance power-off arrives with s.draining still set, so the
// server moves from the draining count to the down count atomically.
func (c *Cluster) serverFault(t sim.Time, s *Server, down bool) {
	g := &c.shards[c.shardOf[s.ID()]]
	if down {
		g.down++
		g.fails++
		if s.draining {
			g.draining--
		}
	} else {
		g.down--
	}
}

// serverDegraded maintains the shard-local fault counter for fail-slow
// onsets and logs the edge.
func (c *Cluster) serverDegraded(t sim.Time, s *Server, degraded bool) {
	g := &c.shards[c.shardOf[s.ID()]]
	factor := 1.0
	if degraded {
		g.fails++
		factor = c.degradeFactor
	}
	g.degrades = append(g.degrades, DegradeRec{At: t, Server: int32(s.ID()), Factor: factor})
}

// serverDrain maintains the shard-local draining counter and logs the
// window-open event.
func (c *Cluster) serverDrain(t sim.Time, s *Server) {
	g := &c.shards[c.shardOf[s.ID()]]
	g.draining++
	g.maints = append(g.maints, MaintRec{At: t, Server: int32(s.ID())})
}

// jobMigrated logs one drain-migrated job (unconditionally: re-dispatch
// handling is mandatory whenever faults are enabled, exactly like
// interrupts).
func (c *Cluster) jobMigrated(t sim.Time, j *Job) {
	g := &c.shards[c.shardOf[j.Server]]
	g.migrates = append(g.migrates, InterruptRec{At: t, J: j})
}

// jobInterrupted logs one crash-evicted job (unconditionally: requeue
// handling is mandatory whenever faults are enabled).
func (c *Cluster) jobInterrupted(t sim.Time, j *Job) {
	g := &c.shards[c.shardOf[j.Server]]
	g.interrupts = append(g.interrupts, InterruptRec{At: t, J: j})
}

// DownServers returns how many servers are currently crashed (parallel
// tier: barrier-time only, like every aggregate).
func (c *Cluster) DownServers() int {
	n := c.shards[0].down
	for i := 1; i < len(c.shards); i++ {
		n += c.shards[i].down
	}
	return n
}

// Failures returns the total crash count so far.
func (c *Cluster) Failures() int64 {
	n := c.shards[0].fails
	for i := 1; i < len(c.shards); i++ {
		n += c.shards[i].fails
	}
	return n
}

// Repairs returns the total completed-repair count so far.
func (c *Cluster) Repairs() int64 {
	var n int64
	for _, s := range c.servers {
		n += s.Repairs()
	}
	return n
}

// Down reports whether server i is currently crashed.
func (c *Cluster) Down(i int) bool { return c.servers[i].Down() }

// Accepting reports whether server i can take new work: neither down nor
// draining for maintenance.
func (c *Cluster) Accepting(i int) bool {
	s := c.servers[i]
	return s.state != StateDown && !s.draining
}

// UnavailableServers returns how many servers currently reject new work —
// down (crashed or maintenance) plus draining. With no drain model it equals
// DownServers. Parallel tier: barrier-time only, like every aggregate.
func (c *Cluster) UnavailableServers() int {
	n := 0
	for i := range c.shards {
		n += c.shards[i].down + c.shards[i].draining
	}
	return n
}

// NextUp returns the first accepting server scanning cyclically upward from
// `from` — the graceful-degradation remap applied when an allocator's pick
// is dead or draining. Returns from itself when it accepts work, -1 when no
// server does.
func (c *Cluster) NextUp(from int) int {
	m := len(c.servers)
	for k := 0; k < m; k++ {
		i := from + k
		if i >= m {
			i -= m
		}
		if c.Accepting(i) {
			return i
		}
	}
	return -1
}

// NextAvailAt returns the earliest instant an unavailable server's state can
// next change: the soonest repair among down servers, or the soonest run-dry
// instant among draining servers (whose graceful power-off then schedules the
// real repair — parking there makes progress because the completion event
// fires first at that instant). Call only while at least one server is
// unavailable; with no drain model it is the soonest repair.
func (c *Cluster) NextAvailAt() sim.Time {
	best := sim.Time(math.MaxFloat64)
	found := false
	for _, s := range c.servers {
		var at sim.Time
		switch {
		case s.Down():
			at = s.RepairAt()
		case s.draining:
			at = s.drainEndsAt()
		default:
			continue
		}
		if !found || at < best {
			best, found = at, true
		}
	}
	if !found {
		panic("cluster: NextAvailAt with no server unavailable")
	}
	return best
}

// Drains returns the total maintenance windows opened so far.
func (c *Cluster) Drains() int64 {
	var n int64
	for _, s := range c.servers {
		n += s.Drains()
	}
	return n
}

// DegradedSeconds integrates every server's fail-slow time through t.
func (c *Cluster) DegradedSeconds(t sim.Time) float64 {
	var d float64
	for _, s := range c.servers {
		d += s.DegradedSeconds(t)
	}
	return d
}

// DownSeconds integrates every server's downtime through t (the
// availability integral's numerator).
func (c *Cluster) DownSeconds(t sim.Time) float64 {
	var d float64
	for _, s := range c.servers {
		d += s.DownSeconds(t)
	}
	return d
}

// RepairedDownSeconds sums completed down intervals across servers (the
// MTTR numerator).
func (c *Cluster) RepairedDownSeconds() float64 {
	var d float64
	for _, s := range c.servers {
		d += s.RepairedDownSeconds()
	}
	return d
}

func (c *Cluster) serverUpdated(t sim.Time, s *Server) {
	i := s.ID()
	g := &c.shards[c.shardOf[i]]
	li := i - g.lo
	jobs := s.JobsInSystem()
	g.totalPower += s.Power() - g.prevPower[li]
	g.jobsInSystem += jobs - g.prevJobs[li]
	if old := g.prevJobs[li]; old != jobs {
		g.jobs.move(old, jobs)
	}
	g.prevPower[li] = s.Power()
	g.prevJobs[li] = jobs
	updateReliTerms(g.reliTerms, g.reliHot, li, s.CommittedUtilization(), c.cfg.HotSpotThreshold)
	g.reliDirty = true
	if g.idx != nil {
		g.idx.Update(li, s.CommittedLoad())
	}
	if c.logChanges {
		g.changes = append(g.changes, ChangeRec{
			At:     t,
			Server: int32(i),
			Jobs:   int32(jobs),
			Power:  s.Power(),
			CU:     s.CommittedUtilization(),
		})
	}
}

// updateReliTerms recomputes one server's hot-spot penalty terms (the only
// terms a single-server event can change) and its bit in the hot mask; local
// is the index within terms/hot. The per-term arithmetic is exactly the full
// scan's, so the cached values are bitwise identical to freshly computed
// ones. Shared verbatim by the per-shard partial state and the Merger's
// global replay.
func updateReliTerms(terms []float64, hot []uint64, local int, u Resources, theta float64) {
	denom := (1 - theta) * (1 - theta)
	base := local * NumResources
	any := false
	for p, v := range u {
		if over := v - theta; over > 0 {
			terms[base+p] = over * over / denom
			any = true
		} else {
			terms[base+p] = 0
		}
	}
	if any {
		hot[local/64] |= 1 << (uint(local) % 64)
	} else {
		hot[local/64] &^= 1 << (uint(local) % 64)
	}
}

// sparseReliSum sums the non-zero cached penalty terms in ascending index
// order. Skipped terms are exactly 0.0 and adding 0.0 to a non-negative
// accumulator is exact, so the sparse sum is bitwise identical to a full
// in-order rescan of the cached terms.
func sparseReliSum(terms []float64, hot []uint64) float64 {
	var s float64
	for w, word := range hot {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			base := (w*64 + b) * NumResources
			for p := 0; p < NumResources; p++ {
				if t := terms[base+p]; t != 0 {
					s += t
				}
			}
		}
	}
	return s
}

// reliPartial returns the shard's cached hot-spot partial sum, rescanned
// only when a server event dirtied it. The cached value is the rescan's
// value, so memoization never changes a bit.
func (g *shardGroup) reliPartial() float64 {
	if g.reliDirty {
		g.reliSum = sparseReliSum(g.reliTerms, g.reliHot)
		g.reliDirty = false
	}
	return g.reliSum
}

func (c *Cluster) serverTransition(t sim.Time, s *Server, from, to PowerState) {
	if c.logTransitions {
		g := &c.shards[c.shardOf[s.ID()]]
		g.trans = append(g.trans, TransRec{At: t, Server: int32(s.ID()), From: from, To: to})
	}
}

func (c *Cluster) jobDone(t sim.Time, j *Job) {
	g := &c.shards[c.shardOf[j.Server]]
	g.completed++
	g.dones = append(g.dones, DoneRec{At: t, J: j})
}

// TotalPower returns the cluster's instantaneous draw in watts: the
// fixed-order reduction of the per-shard incremental accumulators (see
// InvariantCheck for the O(M) recomputation). Parallel tier: barrier-time
// only.
func (c *Cluster) TotalPower() float64 {
	p := c.shards[0].totalPower
	for i := 1; i < len(c.shards); i++ {
		p += c.shards[i].totalPower
	}
	return p
}

// JobsInSystem returns the number of jobs queued or running anywhere.
func (c *Cluster) JobsInSystem() int {
	n := c.shards[0].jobsInSystem
	for i := 1; i < len(c.shards); i++ {
		n += c.shards[i].jobsInSystem
	}
	return n
}

// Submitted returns the number of jobs dispatched so far.
func (c *Cluster) Submitted() int64 {
	n := c.shards[0].submitted
	for i := 1; i < len(c.shards); i++ {
		n += c.shards[i].submitted
	}
	return n
}

// Completed returns the number of jobs finished so far.
func (c *Cluster) Completed() int64 {
	n := c.shards[0].completed
	for i := 1; i < len(c.shards); i++ {
		n += c.shards[i].completed
	}
	return n
}

// TotalEnergyJoules integrates every server's energy through time t.
func (c *Cluster) TotalEnergyJoules(t sim.Time) float64 {
	var e float64
	for _, s := range c.servers {
		e += s.EnergyJoules(t)
	}
	return e
}

// RangeEnergyJoules integrates energy through time t over servers [lo, hi).
// Server classes occupy contiguous index ranges, so per-class rollups are
// range sums.
func (c *Cluster) RangeEnergyJoules(t sim.Time, lo, hi int) float64 {
	var e float64
	for i := lo; i < hi; i++ {
		e += c.servers[i].EnergyJoules(t)
	}
	return e
}

// ServerClasses returns the configured heterogeneous classes (nil for a
// homogeneous cluster). Classes map onto contiguous server-index ranges in
// declaration order.
func (c *Cluster) ServerClasses() []ServerClass { return c.cfg.Classes }

// ReliabilityObj returns the Reli(t) term of the global reward (Eqn. 4):
// a hot-spot penalty sum_m sum_p max(0, u_mp - theta)^2 / (1-theta)^2 over
// the *committed* utilization (running plus queued demand — a backlogged
// server is the hottest spot there is), plus a co-location pressure term:
// the job count on the most loaded server (VM stacking on one failure
// domain). The paper motivates load balancing and anti-co-location but gives
// no formula; DESIGN.md records this concretization. Both terms increase
// when load piles onto individual machines, so the penalty is monotone in
// exactly the placements reliability engineering forbids.
// The value is maintained incrementally as per-shard partial sums (each
// server event refreshes only that server's cached penalty terms and dirties
// its shard's partial), reduced here in fixed ascending shard order. With
// one shard this is the historical sparse ascending sum, bit for bit; the
// bitwise-exact change feed the DRL tier integrates flows through the
// Merger instead, which replays the global summation order at every shard
// count.
func (c *Cluster) ReliabilityObj() float64 {
	hot := c.shards[0].reliPartial()
	maxJobs := c.shards[0].jobs.max
	for i := 1; i < len(c.shards); i++ {
		g := &c.shards[i]
		hot += g.reliPartial()
		if g.jobs.max > maxJobs {
			maxJobs = g.jobs.max
		}
	}
	return hot + float64(maxJobs)
}

// reliabilityRecompute is the reference scan of the reliability objective,
// recomputing every penalty term from live server state in the same
// per-shard partial-sum order the incremental path reduces in, so the
// comparison is exact at any shard count. InvariantCheck and the equivalence
// tests compare it against the incremental value bit for bit.
func (c *Cluster) reliabilityRecompute() float64 {
	theta := c.cfg.HotSpotThreshold
	denom := (1 - theta) * (1 - theta)
	var hot float64
	maxJobs := 0
	for gi := range c.shards {
		g := &c.shards[gi]
		var part float64
		for i := g.lo; i < g.hi; i++ {
			s := c.servers[i]
			u := s.CommittedUtilization()
			for _, v := range u {
				if over := v - theta; over > 0 {
					part += over * over / denom
				}
			}
			if n := s.JobsInSystem(); n > maxJobs {
				maxJobs = n
			}
		}
		hot += part
	}
	return hot + float64(maxJobs)
}

// View is an immutable snapshot of cluster state handed to allocators.
type View struct {
	Now      sim.Time
	M        int
	Util     []Resources  // running utilization per server
	Pending  []Resources  // queued demand per server
	QueueLen []int        // waiting jobs per server
	InSystem []int        // waiting + running per server
	State    []PowerState // power mode per server
	// Speed is each server's effective execution-speed factor (all 1.0 on a
	// homogeneous cluster). Without a fail-slow fault model speeds are
	// immutable after construction, so the slice is filled once when the
	// view is first sized; under the degrade model SnapshotRange refreshes
	// it, so allocators see degraded capacity. Hand-built views may leave it
	// nil; speed-aware allocators must treat nil as "all nominal".
	Speed []float64
}

// Snapshot captures the current state of every server into a freshly
// allocated View. Hot paths should hold one View and use SnapshotInto.
func (c *Cluster) Snapshot() *View {
	return c.SnapshotInto(&View{})
}

// SnapshotPrepare sizes v's slices for this cluster (allocating only when
// not already sized) and stamps M, without refreshing any server state. The
// epoch engine prepares the shared view once, then each shard worker
// refreshes its own disjoint range through SnapshotRange — the per-shard
// view "buffers" alias non-overlapping sections of one backing array, so the
// merge is free and the whole refresh is allocation-free once warm.
func (c *Cluster) SnapshotPrepare(v *View) {
	m := len(c.servers)
	if len(v.Util) != m {
		v.Util = make([]Resources, m)
		v.Pending = make([]Resources, m)
		v.QueueLen = make([]int, m)
		v.InSystem = make([]int, m)
		v.State = make([]PowerState, m)
	}
	if len(v.Speed) != m {
		v.Speed = make([]float64, m)
		for i, s := range c.servers {
			v.Speed[i] = s.Speed()
		}
	}
	v.M = m
}

// SnapshotRange refreshes servers [lo, hi) of a prepared view. Distinct
// ranges touch disjoint memory, so concurrent refreshes of different shards'
// ranges are race-free.
func (c *Cluster) SnapshotRange(v *View, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := c.servers[i]
		v.Util[i] = s.Utilization()
		v.Pending[i] = s.PendingDemand()
		v.QueueLen[i] = s.QueueLen()
		v.InSystem[i] = s.JobsInSystem()
		v.State[i] = s.State()
	}
	// Speed is refreshed only under a fail-slow model: the branch keeps the
	// fault-free refresh loop (and its zero-alloc pin) byte-identical.
	if c.dynSpeed && v.Speed != nil {
		for i := lo; i < hi; i++ {
			v.Speed[i] = c.servers[i].Speed()
		}
	}
}

// SnapshotInto captures the current state of every server into v, reusing
// its slices when already sized for this cluster. After the first call on a
// given View the refresh is allocation-free. It returns v for convenience.
func (c *Cluster) SnapshotInto(v *View) *View {
	c.SnapshotPrepare(v)
	v.Now = c.Clock()
	c.SnapshotRange(v, 0, len(c.servers))
	return v
}

// InvariantCheck recomputes the aggregates from scratch and panics if the
// incremental bookkeeping drifted. Tests call it liberally.
func (c *Cluster) InvariantCheck() {
	var power float64
	jobs := 0
	for _, s := range c.servers {
		power += s.Power()
		jobs += s.JobsInSystem()
	}
	if math.Abs(power-c.TotalPower()) > 1e-6 {
		panic(fmt.Sprintf("cluster: power drift: incremental %v recomputed %v",
			c.TotalPower(), power))
	}
	if jobs != c.JobsInSystem() {
		panic(fmt.Sprintf("cluster: jobs drift: incremental %d recomputed %d",
			c.JobsInSystem(), jobs))
	}
	if inc, ref := c.ReliabilityObj(), c.reliabilityRecompute(); inc != ref {
		panic(fmt.Sprintf("cluster: reliability drift: incremental %v recomputed %v",
			inc, ref))
	}
	down := 0
	for _, s := range c.servers {
		if s.Down() {
			down++
		}
	}
	if down != c.DownServers() {
		panic(fmt.Sprintf("cluster: down-server drift: incremental %d recomputed %d",
			c.DownServers(), down))
	}
	unavail := 0
	for _, s := range c.servers {
		if s.Down() || s.Draining() {
			unavail++
		}
	}
	if unavail != c.UnavailableServers() {
		panic(fmt.Sprintf("cluster: unavailable-server drift: incremental %d recomputed %d",
			c.UnavailableServers(), unavail))
	}
	for s := range c.shards {
		if idx := c.shards[s].idx; idx != nil {
			idx.invariantCheck(c, c.shards[s].lo)
		}
	}
}

// jobsMultiset is a counting multiset of per-server jobs-in-system values
// backing an O(1) amortized running maximum. The shard groups and the
// Merger share it so both maintain the co-location term with identical
// (integer, hence exact) arithmetic.
type jobsMultiset struct {
	buckets []int
	max     int
}

func (m *jobsMultiset) init(servers int) {
	m.buckets = make([]int, 8)
	m.buckets[0] = servers // every server starts empty
	m.max = 0
}

// move shifts one server's jobs-in-system count between buckets and
// maintains the running maximum.
func (m *jobsMultiset) move(old, now int) {
	m.buckets[old]--
	if now >= len(m.buckets) {
		grown := make([]int, 2*now+1)
		copy(grown, m.buckets)
		m.buckets = grown
	}
	m.buckets[now]++
	if now > m.max {
		m.max = now
	} else if old == m.max && m.buckets[old] == 0 {
		for m.max > 0 && m.buckets[m.max] == 0 {
			m.max--
		}
	}
}
