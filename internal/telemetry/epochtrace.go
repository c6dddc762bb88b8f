package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"time"
)

// Decision-epoch tracing: a fixed-size ring of per-epoch timing spans,
// recorded by the sharded engine with zero steady-state allocation and
// dumpable as Chrome trace-event JSON (chrome://tracing, Perfetto). Each
// barrier-delimited phase contributes one PhaseSpan per shard (barrier
// wait, dispatch commit, lane run, view refresh + encode) plus the
// coordinator's merged replay and allocation/GEMM segments — the direct
// measurement of the barrier costs ROADMAP item 3 targets.

// Phase-mode labels (mirrors the shard engine's runMode).
const (
	ModeEpoch   = 0 // runBefore: a decision epoch up to an arrival instant
	ModeThrough = 1 // runThrough: bounded advance (StepUntil, fault stalls)
	ModeDrain   = 2 // runAll: closing drain phase
)

var modeNames = [3]string{"epoch", "through", "drain"}

// PhaseSpan times one shard's work within one phase. All instants are
// monotonic nanoseconds since the ring's base (see EpochRing.NowNs).
type PhaseSpan struct {
	StartNs   int64 // worker began waiting at the barrier (shard 0: phase entry)
	WaitNs    int64 // barrier wait (release latency; 0 for the inline shard 0)
	CommitNs  int64 // pended-dispatch commit (Submit cascade)
	RunNs     int64 // lane event execution
	RefreshNs int64 // view-range snapshot + DRL pre-encode
}

// EpochSpan times one barrier-delimited phase end to end.
type EpochSpan struct {
	Epoch   int64   // monotone phase counter (1-based)
	AtSec   float64 // the phase's sim-time horizon (arrival instant for epochs)
	Mode    uint8   // ModeEpoch | ModeThrough | ModeDrain
	StartNs int64   // coordinator released the barrier

	// Coordinator segments after join: merged observation replay, then (for
	// decision epochs) the allocation — including the batched GEMM on DRL
	// configurations — of the arrival.
	ReplayStartNs int64
	ReplayNs      int64
	AllocStartNs  int64
	AllocNs       int64

	Shards []PhaseSpan // indexed by shard ID
}

// EpochRing records the last cap epochs. Begin/Cur are driven by the
// sharded engine's coordinator; workers write only their own Shards slot of
// the current span, between the barrier release and their arrive — the
// barrier's generation counter and arrival handoff order those writes
// against the coordinator's, so the ring needs no locks of its own.
type EpochRing struct {
	spans []EpochSpan
	n     int64 // epochs recorded in total
	cur   *EpochSpan
	base  time.Time
}

// NewEpochRing returns a ring holding the last capacity epochs of a
// p-shard engine (capacity < 1 defaults to 2048).
func NewEpochRing(capacity, p int) *EpochRing {
	if capacity < 1 {
		capacity = 2048
	}
	r := &EpochRing{spans: make([]EpochSpan, capacity), base: time.Now()}
	for i := range r.spans {
		r.spans[i].Shards = make([]PhaseSpan, p)
	}
	return r
}

// NowNs returns monotonic nanoseconds since the ring was created.
// Allocation-free (time.Since reads the monotonic clock).
func (r *EpochRing) NowNs() int64 { return int64(time.Since(r.base)) }

// Begin opens the next epoch slot, resetting it in place (no allocation).
// Must be called by the coordinator before the barrier release.
func (r *EpochRing) Begin(atSec float64, mode uint8) {
	sp := &r.spans[r.n%int64(len(r.spans))]
	r.n++
	for i := range sp.Shards {
		sp.Shards[i] = PhaseSpan{}
	}
	sp.Epoch = r.n
	sp.AtSec = atSec
	sp.Mode = mode
	sp.StartNs = r.NowNs()
	sp.ReplayStartNs, sp.ReplayNs = 0, 0
	sp.AllocStartNs, sp.AllocNs = 0, 0
	r.cur = sp
}

// Cur returns the span opened by the last Begin (nil before the first).
func (r *EpochRing) Cur() *EpochSpan { return r.cur }

// Len returns how many spans the ring currently holds.
func (r *EpochRing) Len() int {
	if r.n < int64(len(r.spans)) {
		return int(r.n)
	}
	return len(r.spans)
}

// Recorded returns the total number of epochs recorded (including those
// that have been overwritten).
func (r *EpochRing) Recorded() int64 { return r.n }

// Spans appends the retained spans in chronological order to dst and
// returns it. The returned spans alias the ring's slots; do not retain
// them across further recording.
func (r *EpochRing) Spans(dst []EpochSpan) []EpochSpan {
	k := int64(len(r.spans))
	if r.n <= k {
		return append(dst, r.spans[:r.n]...)
	}
	head := r.n % k
	dst = append(dst, r.spans[head:]...)
	return append(dst, r.spans[:head]...)
}

// WriteChromeTrace dumps the ring as Chrome trace-event JSON: one "X"
// (complete) event per non-empty phase segment, tid = shard ID (the
// coordinator's replay/alloc segments get tid = P), ts/dur in microseconds.
// Load the file in chrome://tracing or ui.perfetto.dev.
func (r *EpochRing) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	p := 0
	if len(r.spans) > 0 {
		p = len(r.spans[0].Shards)
	}
	fmt.Fprint(bw, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	meta := func(tid int, name string) {
		sep(bw, &first)
		fmt.Fprintf(bw, `{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, tid, name)
	}
	for s := 0; s < p; s++ {
		meta(s, fmt.Sprintf("shard %d", s))
	}
	meta(p, "coordinator")
	emit := func(name string, tid int, startNs, durNs, epoch int64, atSec float64, mode uint8) {
		if durNs <= 0 {
			return
		}
		sep(bw, &first)
		fmt.Fprintf(bw, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"epoch":%d,"t_sim_s":%g,"mode":%q}}`,
			name, tid, float64(startNs)/1e3, float64(durNs)/1e3, epoch, atSec, modeNames[mode%3])
	}
	var spans []EpochSpan
	spans = r.Spans(spans)
	for i := range spans {
		es := &spans[i]
		for s := range es.Shards {
			ps := &es.Shards[s]
			at := ps.StartNs
			emit("barrier-wait", s, at, ps.WaitNs, es.Epoch, es.AtSec, es.Mode)
			at += ps.WaitNs
			emit("commit", s, at, ps.CommitNs, es.Epoch, es.AtSec, es.Mode)
			at += ps.CommitNs
			emit("run", s, at, ps.RunNs, es.Epoch, es.AtSec, es.Mode)
			at += ps.RunNs
			emit("refresh+encode", s, at, ps.RefreshNs, es.Epoch, es.AtSec, es.Mode)
		}
		emit("replay", p, es.ReplayStartNs, es.ReplayNs, es.Epoch, es.AtSec, es.Mode)
		emit("alloc+gemm", p, es.AllocStartNs, es.AllocNs, es.Epoch, es.AtSec, es.Mode)
	}
	fmt.Fprint(bw, "]}\n")
	return bw.Flush()
}

func sep(w io.Writer, first *bool) {
	if *first {
		*first = false
		return
	}
	io.WriteString(w, ",")
}
