// Durable checkpoint/restore: Session.Checkpoint serializes the complete
// resumable state of a run at a decision-epoch boundary into a versioned,
// CRC-guarded snapshot; Restore rebuilds a Session from one that continues
// bitwise-identically to the uninterrupted run (see DESIGN.md §14 for the
// format and the per-tier determinism contract). WithAutoCheckpoint layers a
// crash-safe periodic snapshot file on top (atomic write-rename, keep-last-K).
package hierdrl

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"hierdrl/internal/checkpoint"
	"hierdrl/internal/cluster"
	"hierdrl/internal/sim"
	"hierdrl/internal/trace"
)

// Snapshot error sentinels, re-exported from internal/checkpoint so callers
// can classify Restore failures with errors.Is.
var (
	// ErrCorrupt marks a snapshot that is structurally broken: truncated,
	// bad magic, CRC mismatch, or internally inconsistent field values.
	ErrCorrupt = checkpoint.ErrCorrupt
	// ErrVersion marks a snapshot written by an incompatible format version.
	ErrVersion = checkpoint.ErrVersion
	// ErrConfigMismatch marks a snapshot whose embedded Config does not match
	// its header fingerprint (tampering) or whose structure contradicts the
	// configuration it declares.
	ErrConfigMismatch = checkpoint.ErrConfigMismatch
)

// Snapshot section names, in file order. Sections decouple the container from
// the layout: a reader locates each by name, so reordering or adding sections
// is a version-compatible change.
const (
	secConfig  = "config"
	secEngine  = "engine"
	secCluster = "cluster"
	secSession = "session"
	secAgent   = "agent"
	secAlloc   = "alloc"
	secMetrics = "metrics"
	secMerger  = "merger"
)

// fnv64a hashes b with FNV-1a (64-bit) — the snapshot's config fingerprint.
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// configJSON marshals the session's validated config with the warmup trace
// zeroed: the trace is consumed at construction (its effect lives on in the
// agent weights, which the snapshot captures), and at paper scale it would
// dwarf the rest of the snapshot.
func (s *Session) configJSON() ([]byte, error) {
	shadow := s.cfg
	shadow.WarmupTrace = nil
	return json.Marshal(shadow)
}

// Checkpoint serializes the session's complete resumable state to w. It must
// be called at a decision-epoch boundary — any instant user code runs between
// Step / StepUntil / Drain calls qualifies (the engine parks its workers at a
// barrier between epochs, so the lanes are quiescent exactly when the caller
// has control).
//
// The snapshot captures the engine clocks and pending timers, every queued
// and in-flight job, the cluster's power/reliability aggregates, the DRL
// agent (weights, optimizer moments, replay buffer, RNG chains), the
// allocator and per-server power-management policies, the fault clocks and
// retry bookkeeping, and the metrics series — everything Restore needs to
// continue the run bitwise-identically. It does not capture the Observer,
// the context, or the auto-checkpoint configuration; those re-attach through
// Restore's options.
//
// Checkpointing a closed session returns ErrSessionClosed; checkpointing a
// session whose run already failed (context cancellation, guard trip) returns
// the latched error — a partial failed run is not a resumable state.
func (s *Session) Checkpoint(w io.Writer) (err error) {
	if s.closed {
		return ErrSessionClosed
	}
	if s.err != nil {
		return fmt.Errorf("hierdrl: checkpoint of failed session: %w", s.err)
	}
	defer checkpoint.Catch(&err)

	cfgJSON, jerr := s.configJSON()
	if jerr != nil {
		return fmt.Errorf("hierdrl: checkpoint config: %w", jerr)
	}
	wr := checkpoint.NewWriter(fnv64a(cfgJSON))
	wr.Section(secConfig).Bytes(cfgJSON)

	// Register the remaining sections in file order up front; the writer
	// buffers them, so the fill order below can differ (the cluster fills
	// first because its job table indexes the engine's in-flight dispatches).
	engineEnc := wr.Section(secEngine)
	clusterEnc := wr.Section(secCluster)
	sessionEnc := wr.Section(secSession)
	agentEnc := wr.Section(secAgent)
	allocEnc := wr.Section(secAlloc)
	metricsEnc := wr.Section(secMetrics)
	mergerEnc := wr.Section(secMerger)

	// Dispatches already allocated but not yet committed to a lane live only
	// in the coordinator; hand them to the cluster so they join its job
	// table.
	var extra []*cluster.Job
	for i := range s.sr.pends {
		extra = append(extra, s.sr.pends[i].job)
	}
	idx := s.cl.SaveState(clusterEnc, extra)

	s.saveEngine(engineEnc, idx)
	s.saveSessionState(sessionEnc)

	if s.agent != nil {
		agentEnc.Bool(true)
		s.agent.SaveState(agentEnc)
	} else {
		agentEnc.Bool(false)
	}

	// The DRL agent doubles as the allocator and is already captured above;
	// every other allocator serializes as its own component.
	if s.cfg.Alloc == AllocDRL {
		allocEnc.Bool(false)
	} else {
		allocEnc.Bool(true)
		checkpoint.SaveComponent(allocEnc, s.alloc)
	}

	s.col.SaveState(metricsEnc)

	if s.sr.merger != nil {
		mergerEnc.Bool(true)
		s.sr.merger.SaveState(mergerEnc)
	} else {
		mergerEnc.Bool(false)
	}

	_, err = wr.WriteTo(w)
	return err
}

// saveEngine captures the epoch engine: shard count, per-lane clock and
// sequence counters, the engine clock, and the uncommitted dispatches (by
// cluster job-table index).
func (s *Session) saveEngine(e *checkpoint.Enc, idx map[*cluster.Job]int32) {
	p := s.sr.p
	e.Int(p)
	for i := 0; i < p; i++ {
		lane := s.cl.Lane(i)
		e.F64(float64(lane.Now()))
		seq, nFired := lane.Counters()
		e.I64(seq)
		e.I64(nFired)
	}
	e.F64(float64(s.sr.clock))
	e.Int(len(s.sr.pends))
	for i := range s.sr.pends {
		d := &s.sr.pends[i]
		e.I32(idx[d.job])
		e.Int(d.target)
		e.Int(d.shard)
		e.F64(float64(d.at))
	}
}

// pendRecBytes is a lower bound on one serialized uncommitted dispatch
// (I32 job index + Int target + Int shard + F64 at).
const pendRecBytes = 4 + 8 + 8 + 8

// queuedJobBytes is a lower bound on one serialized pending arrival
// (Int ID + F64 arrival + F64 duration + NumResources × F64).
const queuedJobBytes = 8*3 + 8*trace.NumResources

// saveSessionState captures the ingestion and fault-retry layer: counters,
// the undispatched arrival queue, the per-job retry map (sorted by ID for a
// canonical byte stream), and the retry policy component.
func (s *Session) saveSessionState(e *checkpoint.Enc) {
	e.I64(s.ingested)
	e.Bool(s.finished)
	pending := s.queue[s.qhead:]
	e.Int(len(pending))
	for i := range pending {
		tj := &pending[i]
		e.Int(tj.ID)
		e.F64(tj.Arrival)
		e.F64(tj.Duration)
		for r := 0; r < trace.NumResources; r++ {
			e.F64(tj.Req[r])
		}
	}
	e.Bool(s.fm != nil)
	if s.fm != nil {
		ids := make([]int, 0, len(s.retry))
		for id := range s.retry {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		e.Int(len(ids))
		for _, id := range ids {
			ri := s.retry[id]
			e.Int(id)
			e.Int(ri.attempts)
			e.F64(ri.orig)
		}
		checkpoint.SaveComponent(e, s.rp)
	}
	e.I64(s.interrupted)
	e.I64(s.retried)
	e.I64(s.lost)
	e.F64(s.lostWork)
	e.I64(s.migrated)
	e.I64(s.domainOutages)
}

// Restore rebuilds a Session from a snapshot written by Checkpoint. The
// returned session continues exactly where the checkpointed one stopped:
// stepping it produces the same events, the same decisions, and — at Drain —
// a Result bitwise identical to the uninterrupted run's.
//
// The Config is embedded in the snapshot (warmup trace excluded — its effect
// lives in the restored agent weights), so opts carry only the re-attachable
// runtime state: WithObserver, WithContext, WithAutoCheckpoint. The shard
// count is part of the snapshot; a WithShards option is ignored. Restore
// fails with ErrCorrupt, ErrVersion, or ErrConfigMismatch on damaged input,
// never with a partially built session.
func Restore(r io.Reader, opts ...SessionOption) (*Session, error) {
	rd, err := checkpoint.NewReader(r)
	if err != nil {
		return nil, err
	}

	cfg, err := restoreConfig(rd)
	if err != nil {
		return nil, err
	}

	engDec, err := rd.Section(secEngine)
	if err != nil {
		return nil, err
	}
	p := engDec.Int()
	if err := engDec.Sticky(); err != nil {
		return nil, err
	}
	if p < 1 || p > 1<<16 {
		return nil, fmt.Errorf("%w: shard count %d", ErrCorrupt, p)
	}

	// Rebuild an equivalent empty session; every stateful component inside it
	// is then overwritten from the snapshot, so the construction-time RNG
	// draws and initial fault timers are irrelevant.
	s, err := NewSession(cfg, append(append([]SessionOption{}, opts...), WithShards(p))...)
	if err != nil {
		return nil, fmt.Errorf("hierdrl: restore: rebuild session: %w", err)
	}
	ok := false
	defer func() {
		if !ok {
			s.Close()
		}
	}()

	// Lane clocks and sequence counters first: RestoreBegin wipes the
	// construction-time event queues, and the cluster's timer re-registration
	// below validates against the restored clocks.
	for i := 0; i < p; i++ {
		now := sim.Time(engDec.F64())
		seq := engDec.I64()
		nFired := engDec.I64()
		if err := engDec.Sticky(); err != nil {
			return nil, err
		}
		if math.IsNaN(float64(now)) || now < 0 || nFired < 0 {
			return nil, fmt.Errorf("%w: lane %d clock %v, %d fired", ErrCorrupt, i, now, nFired)
		}
		s.cl.Lane(i).RestoreBegin(now, seq, nFired)
	}

	clDec, err := rd.Section(secCluster)
	if err != nil {
		return nil, err
	}
	table, err := s.cl.RestoreState(clDec)
	if err != nil {
		return nil, err
	}
	if err := clDec.Err(); err != nil {
		return nil, err
	}

	if err := s.restoreEngineTail(engDec, table); err != nil {
		return nil, err
	}
	if err := engDec.Err(); err != nil {
		return nil, err
	}

	sesDec, err := rd.Section(secSession)
	if err != nil {
		return nil, err
	}
	if err := s.restoreSessionState(sesDec); err != nil {
		return nil, err
	}
	if err := sesDec.Err(); err != nil {
		return nil, err
	}

	agDec, err := rd.Section(secAgent)
	if err != nil {
		return nil, err
	}
	hasAgent := agDec.Bool()
	if err := agDec.Sticky(); err != nil {
		return nil, err
	}
	if hasAgent != (s.agent != nil) {
		return nil, fmt.Errorf("%w: agent presence %v contradicts config", ErrCorrupt, hasAgent)
	}
	if hasAgent {
		if err := s.agent.RestoreState(agDec); err != nil {
			return nil, err
		}
	}
	if err := agDec.Err(); err != nil {
		return nil, err
	}

	alDec, err := rd.Section(secAlloc)
	if err != nil {
		return nil, err
	}
	hasAlloc := alDec.Bool()
	if err := alDec.Sticky(); err != nil {
		return nil, err
	}
	if hasAlloc != (s.cfg.Alloc != AllocDRL) {
		return nil, fmt.Errorf("%w: allocator presence %v contradicts config", ErrCorrupt, hasAlloc)
	}
	if hasAlloc {
		if err := checkpoint.RestoreComponent(alDec, s.alloc); err != nil {
			return nil, err
		}
	}
	if err := alDec.Err(); err != nil {
		return nil, err
	}

	mDec, err := rd.Section(secMetrics)
	if err != nil {
		return nil, err
	}
	if err := s.col.RestoreState(mDec); err != nil {
		return nil, err
	}
	if err := mDec.Err(); err != nil {
		return nil, err
	}

	mgDec, err := rd.Section(secMerger)
	if err != nil {
		return nil, err
	}
	hasMerger := mgDec.Bool()
	if err := mgDec.Sticky(); err != nil {
		return nil, err
	}
	if hasMerger != (s.sr.merger != nil) {
		return nil, fmt.Errorf("%w: merger presence %v contradicts config", ErrCorrupt, hasMerger)
	}
	if hasMerger {
		if err := s.sr.merger.RestoreState(mgDec); err != nil {
			return nil, err
		}
	}
	if err := mgDec.Err(); err != nil {
		return nil, err
	}

	ok = true
	return s, nil
}

// restoreConfig decodes and cross-checks the embedded Config: the section
// bytes must hash to the header fingerprint (the snapshot's identity), and
// the JSON must unmarshal cleanly.
func restoreConfig(rd *checkpoint.Reader) (Config, error) {
	var cfg Config
	cfgDec, err := rd.Section(secConfig)
	if err != nil {
		return cfg, err
	}
	cfgJSON := cfgDec.Bytes()
	if err := cfgDec.Err(); err != nil {
		return cfg, err
	}
	if got := fnv64a(cfgJSON); got != rd.Fingerprint() {
		return cfg, fmt.Errorf("%w: header fingerprint %016x but config hashes to %016x",
			ErrConfigMismatch, rd.Fingerprint(), got)
	}
	if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
		return cfg, fmt.Errorf("%w: config: %v", ErrCorrupt, err)
	}
	cfg.WarmupTrace = nil
	return cfg, nil
}

// restoreEngineTail decodes the engine state that follows the per-lane
// counters: the engine clock and the uncommitted dispatches.
func (s *Session) restoreEngineTail(d *checkpoint.Dec, table []*cluster.Job) error {
	clock := sim.Time(d.F64())
	n := d.SliceLen(pendRecBytes)
	if err := d.Sticky(); err != nil {
		return err
	}
	if math.IsNaN(float64(clock)) || clock < 0 {
		return fmt.Errorf("%w: engine clock %v", ErrCorrupt, clock)
	}
	s.sr.clock = clock
	for k := 0; k < n; k++ {
		ji := d.I32()
		target := d.Int()
		shard := d.Int()
		at := sim.Time(d.F64())
		if err := d.Sticky(); err != nil {
			return err
		}
		if ji < 0 || int(ji) >= len(table) {
			return fmt.Errorf("%w: dispatch %d references job %d of %d", ErrCorrupt, k, ji, len(table))
		}
		if target < 0 || target >= s.cl.M() || shard != s.cl.ShardOf(target) {
			return fmt.Errorf("%w: dispatch %d target %d shard %d", ErrCorrupt, k, target, shard)
		}
		if math.IsNaN(float64(at)) {
			return fmt.Errorf("%w: dispatch %d time is NaN", ErrCorrupt, k)
		}
		s.sr.pends = append(s.sr.pends, dispatch{job: table[ji], target: target, shard: shard, at: at})
	}
	return nil
}

// restoreSessionState decodes the ingestion and fault-retry layer written by
// saveSessionState, validating the arrival queue's (arrival, order) sort
// invariant and the fault-layer presence against the rebuilt config.
func (s *Session) restoreSessionState(d *checkpoint.Dec) error {
	s.ingested = d.I64()
	s.finished = d.Bool()
	nq := d.SliceLen(queuedJobBytes)
	if err := d.Sticky(); err != nil {
		return err
	}
	if s.ingested < 0 {
		return fmt.Errorf("%w: ingested %d", ErrCorrupt, s.ingested)
	}
	s.queue = s.queue[:0]
	s.qhead = 0
	for k := 0; k < nq; k++ {
		var tj trace.Job
		tj.ID = d.Int()
		tj.Arrival = d.F64()
		tj.Duration = d.F64()
		for r := 0; r < trace.NumResources; r++ {
			tj.Req[r] = d.F64()
		}
		if err := d.Sticky(); err != nil {
			return err
		}
		if math.IsNaN(tj.Arrival) || math.IsNaN(tj.Duration) || tj.Duration < 0 {
			return fmt.Errorf("%w: queued job %d arrival %v duration %v", ErrCorrupt, tj.ID, tj.Arrival, tj.Duration)
		}
		if k > 0 && tj.Arrival < s.queue[k-1].Arrival {
			return fmt.Errorf("%w: arrival queue out of order at %d", ErrCorrupt, k)
		}
		s.queue = append(s.queue, tj)
	}
	hasFaults := d.Bool()
	if err := d.Sticky(); err != nil {
		return err
	}
	if hasFaults != (s.fm != nil) {
		return fmt.Errorf("%w: fault layer presence %v contradicts config", ErrCorrupt, hasFaults)
	}
	if hasFaults {
		nr := d.SliceLen(8 + 8 + 8)
		if err := d.Sticky(); err != nil {
			return err
		}
		for k := 0; k < nr; k++ {
			id := d.Int()
			attempts := d.Int()
			orig := d.F64()
			if err := d.Sticky(); err != nil {
				return err
			}
			if attempts < 1 || math.IsNaN(orig) {
				return fmt.Errorf("%w: retry record for job %d: %d attempts, orig %v", ErrCorrupt, id, attempts, orig)
			}
			s.retry[id] = retryInfo{attempts: attempts, orig: orig}
		}
		if err := checkpoint.RestoreComponent(d, s.rp); err != nil {
			return err
		}
	}
	s.interrupted = d.I64()
	s.retried = d.I64()
	s.lost = d.I64()
	s.lostWork = d.F64()
	s.migrated = d.I64()
	s.domainOutages = d.I64()
	if err := d.Sticky(); err != nil {
		return err
	}
	if s.interrupted < 0 || s.retried < 0 || s.lost < 0 || math.IsNaN(s.lostWork) ||
		s.migrated < 0 || s.domainOutages < 0 {
		return fmt.Errorf("%w: fault tallies %d/%d/%d/%d/%d/%v", ErrCorrupt,
			s.interrupted, s.migrated, s.retried, s.lost, s.domainOutages, s.lostWork)
	}
	// The per-domain down counters are derived state: recompute them from the
	// restored server states rather than serializing a redundant copy.
	if s.domIdx != nil {
		for i := range s.domDown {
			s.domDown[i] = 0
		}
		for i := 0; i < s.cl.M(); i++ {
			if s.cl.Down(i) {
				s.domDown[s.domIdx[i]]++
			}
		}
	}
	return nil
}

// SaveWeights serializes only the DRL agent's online-network weights — the
// portable, architecture-checked export for transferring a trained policy
// across runs. It is not a checkpoint: optimizer moments, replay buffer, and
// RNG chains stay behind (use Checkpoint for exact resumption). Errors on
// sessions without a DRL agent.
func (s *Session) SaveWeights(w io.Writer) error {
	if s.agent == nil {
		return fmt.Errorf("hierdrl: SaveWeights: config %q has no DRL agent", s.cfg.Name)
	}
	return s.agent.SaveWeights(w)
}

// LoadWeights restores weights saved by SaveWeights into the session's DRL
// agent (online and target networks). The architecture must match. Errors on
// sessions without a DRL agent.
func (s *Session) LoadWeights(r io.Reader) error {
	if s.agent == nil {
		return fmt.Errorf("hierdrl: LoadWeights: config %q has no DRL agent", s.cfg.Name)
	}
	return s.agent.LoadWeights(r)
}

// Drained reports whether every ingested job has been dispatched and either
// completed or lost — the condition under which Drain stops on fault runs
// (whose crash/repair timers never exhaust the event queue). Callers driving
// their own Step loop use it the same way Drain does: stop at Drained on a
// fault-injected run, at Step reporting idle otherwise.
func (s *Session) Drained() bool { return s.drained() }

// FaultsEnabled reports whether the session injects failures
// (Config.Faults != FaultNone).
func (s *Session) FaultsEnabled() bool { return s.fm != nil }

// autoCheckpoint is the periodic snapshot-to-disk layer configured by
// WithAutoCheckpoint.
type autoCheckpoint struct {
	path  string
	every int64
	keep  int
	last  int64 // completed-job count at the previous snapshot
}

// autoKeep is how many rotated snapshot generations WithAutoCheckpoint
// retains: path (newest), path.1, path.2.
const autoKeep = 3

// WithAutoCheckpoint writes a snapshot of the session to path every
// everyNJobs completed jobs (checked at epoch boundaries inside Step,
// StepUntil, and Drain; everyNJobs < 1 is treated as 1). Each write is
// crash-safe: the snapshot lands in path+".tmp" first and is renamed over
// path only once fully written, and the previous generations are kept as
// path.1 and path.2 — a crash mid-write never destroys the last good
// snapshot. A write failure surfaces from the driving Step/StepUntil/Drain
// call without terminating the run: the session itself stays consistent and
// resumable, and the next boundary retries.
//
// The option applies to NewSession and Restore alike, so a resumed run keeps
// checkpointing to the same file.
func WithAutoCheckpoint(path string, everyNJobs int) SessionOption {
	return func(o *sessionOptions) {
		o.autoPath = path
		o.autoEvery = everyNJobs
	}
}

// autoTick writes a periodic snapshot if the completed-job threshold has
// passed since the last one. Called at epoch boundaries by the clock-advance
// methods; a no-op (one branch) when auto-checkpointing is off.
func (s *Session) autoTick() error {
	if s.auto == nil {
		return nil
	}
	done := s.cl.Completed()
	if done-s.auto.last < s.auto.every {
		return nil
	}
	s.auto.last = done
	if err := s.writeAutoCheckpoint(); err != nil {
		return fmt.Errorf("hierdrl: auto-checkpoint: %w", err)
	}
	return nil
}

// writeAutoCheckpoint performs one atomic snapshot write with rotation:
// serialize to path.tmp, shift the existing generations (path → path.1 →
// path.2), then rename the fresh file into place.
func (s *Session) writeAutoCheckpoint() error {
	tmp := s.auto.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := s.Checkpoint(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	for g := s.auto.keep - 1; g >= 1; g-- {
		from := s.auto.path
		if g > 1 {
			from = fmt.Sprintf("%s.%d", s.auto.path, g-1)
		}
		to := fmt.Sprintf("%s.%d", s.auto.path, g)
		if err := os.Rename(from, to); err != nil && !os.IsNotExist(err) {
			os.Remove(tmp)
			return err
		}
	}
	return os.Rename(tmp, s.auto.path)
}
