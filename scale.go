package hierdrl

import (
	"fmt"

	"hierdrl/internal/local"
	"hierdrl/internal/lstm"
	"hierdrl/internal/trace"
)

// This file defines the scale-10k operating point: the preset configuration
// and the bounded-memory streaming runner that drive a single M=10,000-server
// run over >= 2M jobs — the workload the sharded engine (WithShards) exists
// for. See EXPERIMENTS.md for the measured speedup curve and `make scale`
// for the harness.

// ScaleJobs is the scale-10k preset's workload length.
const ScaleJobs = 2_000_000

// ScaleM is the scale-10k preset's cluster size.
const ScaleM = 10_000

// ScaleSim returns the scale-10k system: latency-greedy least-loaded global
// allocation (answered from the engine's incremental per-shard load index —
// a per-arrival O(M) scan would dominate the whole run at this M) over the
// paper's RL local power-management tier with a compact per-server LSTM
// predictor. The global DRL agent is deliberately not used here: a 10k-way
// action space is far outside the paper's design envelope, while the local
// tier is exactly its "one independent manager per machine" shape — which is
// also what makes the run shard-parallel.
//
// The LSTM is downsized (lookback 16, hidden 8, history 64) so 10k per-server
// replicas fit comfortably in memory while still giving the local tier its
// learned inter-arrival forecasts.
func ScaleSim(m int) Config {
	lp := lstm.DefaultPredictorConfig()
	lp.Lookback = 16
	lp.Network.Hidden = 8
	lp.TrainEvery = 64
	lp.BatchSize = 2
	lp.HistoryCap = 64
	return Config{
		Name:          "scale",
		M:             m,
		Seed:          1,
		Alloc:         AllocLeastLoaded,
		DPM:           DPMRL,
		LocalRL:       local.DefaultRLConfig(),
		Predictor:     PredictorLSTM,
		LSTMPredictor: lp,
	}
}

// ScaleStream returns the incremental generator of the scale workload: n
// jobs with the arrival rate scaled to an m-server cluster (the same
// calibration as SyntheticTraceForCluster, without materializing the trace).
func ScaleStream(n, m int, seed int64) (*TraceStream, error) {
	cfg := trace.DefaultGeneratorConfig()
	cfg.NumJobs = n
	cfg.BaseRate *= float64(m) / 30.0
	return trace.NewStream(cfg, seed)
}

// TraceStream re-exports the incremental workload generator.
type TraceStream = trace.Stream

// RunStreamed executes one run fed from the classic incremental generator.
// It is RunSource specialized to *TraceStream, kept for compatibility; both
// stream in bounded chunks so the workload never materializes.
func RunStreamed(cfg Config, src *TraceStream, opts ...SessionOption) (*Result, error) {
	if src == nil {
		return nil, fmt.Errorf("hierdrl: nil job source")
	}
	return RunSource(cfg, src, opts...)
}

// RunSource executes one run fed from any incremental job source (a
// *TraceStream, a scenario's WorkloadSource, or any JobSource) in bounded
// chunks: each chunk is submitted, then the clock is advanced to its last
// arrival before the next chunk is pulled, so neither the workload nor the
// pending queue ever materializes more than chunk+in-flight jobs. This is
// how the scale presets push >= 2M jobs through a 10k-server cluster in a
// few hundred MB. Combine with WithShards(P) to spread it over P cores.
func RunSource(cfg Config, src JobSource, opts ...SessionOption) (*Result, error) {
	if src == nil {
		return nil, fmt.Errorf("hierdrl: nil job source")
	}
	s, err := NewSession(cfg, opts...)
	if err != nil {
		return nil, err
	}
	defer s.Close()

	const chunk = 1 << 15
	buf := make([]Job, 0, chunk)
	tr := &Trace{}
	for {
		buf = buf[:0]
		for len(buf) < chunk {
			j, ok := src.Next()
			if !ok {
				break
			}
			buf = append(buf, j)
		}
		if len(buf) == 0 {
			break
		}
		tr.Jobs = buf
		if err := s.SubmitTrace(tr); err != nil {
			return nil, err
		}
		// Chase the chunk: dispatch everything up to its last arrival so the
		// pending queue stays O(chunk) while completions drain behind it.
		if err := s.StepUntil(Time(buf[len(buf)-1].Arrival)); err != nil {
			return nil, err
		}
	}
	if s.Ingested() == 0 {
		return nil, fmt.Errorf("hierdrl: empty job source")
	}
	if err := s.Drain(); err != nil {
		return nil, err
	}
	return s.Result()
}
