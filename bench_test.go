// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Sec. VII), plus micro-benchmarks of the hot components. The
// experiment benchmarks run the 20x-reduced BenchScale workload and report
// the paper's metrics (energy, accumulated latency, average power) through
// b.ReportMetric, so `go test -bench=.` regenerates every row/series shape;
// `cmd/experiments -scale full` reproduces the full 95,000-job operating
// point.
package hierdrl_test

import (
	"testing"

	"hierdrl"
	"hierdrl/internal/cluster"
	"hierdrl/internal/global"
	"hierdrl/internal/lstm"
	"hierdrl/internal/mat"
	"hierdrl/internal/nn"
	"hierdrl/internal/sim"
)

// benchScale trims BenchScale further so a single benchmark iteration stays
// in the seconds range.
func benchScale(m int) hierdrl.Scale {
	return hierdrl.Scale{Jobs: 2000, WarmupJobs: 600, Seed: 1, ClusterM: m}
}

func reportComparison(b *testing.B, cmp *hierdrl.Comparison) {
	b.Helper()
	for _, s := range cmp.Rows() {
		b.ReportMetric(s.EnergykWh, s.Policy+"_energy_kWh")
		b.ReportMetric(s.AccLatencySec/1e6, s.Policy+"_latency_Ms")
		b.ReportMetric(s.AvgPowerW, s.Policy+"_power_W")
	}
}

// BenchmarkTable1_M30 regenerates the M=30 block of Table I.
func BenchmarkTable1_M30(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmp, err := hierdrl.RunComparison(30, benchScale(30), 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportComparison(b, cmp)
		}
	}
}

// BenchmarkTable1_M40 regenerates the M=40 block of Table I.
func BenchmarkTable1_M40(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmp, err := hierdrl.RunComparison(40, benchScale(40), 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportComparison(b, cmp)
		}
	}
}

// BenchmarkFig8_M30 regenerates the Fig. 8 accumulated latency/energy series
// (M=30); the checkpoint count mirrors the paper's plotted resolution.
func BenchmarkFig8_M30(b *testing.B) {
	sc := benchScale(30)
	for i := 0; i < b.N; i++ {
		cmp, err := hierdrl.RunComparison(30, sc, sc.Jobs/19)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportComparison(b, cmp)
			b.ReportMetric(float64(len(cmp.Hierarchical.Checkpoints)), "series_points")
		}
	}
}

// BenchmarkFig9_M40 regenerates the Fig. 9 series (M=40).
func BenchmarkFig9_M40(b *testing.B) {
	sc := benchScale(40)
	for i := 0; i < b.N; i++ {
		cmp, err := hierdrl.RunComparison(40, sc, sc.Jobs/19)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportComparison(b, cmp)
			b.ReportMetric(float64(len(cmp.Hierarchical.Checkpoints)), "series_points")
		}
	}
}

// BenchmarkFig10_Tradeoff regenerates the Fig. 10 latency/energy trade-off
// study (hierarchical sweep vs fixed-timeout baselines) and reports the
// dominated hypervolume of each curve (larger = better trade-off).
func BenchmarkFig10_Tradeoff(b *testing.B) {
	sc := hierdrl.Scale{Jobs: 1200, WarmupJobs: 400, Seed: 1, ClusterM: 10}
	lambdas := []float64{0.25, 0.75}
	for i := 0; i < b.N; i++ {
		curves, err := hierdrl.RunTradeoff(10, sc, lambdas)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			var refLat, refE float64
			for _, c := range curves.All() {
				for _, p := range c {
					if p.AvgLatencySec > refLat {
						refLat = p.AvgLatencySec
					}
					if p.AvgEnergyJPerJob > refE {
						refE = p.AvgEnergyJPerJob
					}
				}
			}
			refLat *= 1.05
			refE *= 1.05
			b.ReportMetric(hierdrl.HypervolumeOf(curves.Hierarchical, refLat, refE)/1e6, "hier_hypervol")
			b.ReportMetric(hierdrl.HypervolumeOf(curves.Fixed60, refLat, refE)/1e6, "fixed60_hypervol")
		}
	}
}

// BenchmarkX1_LSTMPredictor regenerates the predictor-accuracy extension
// study (LSTM vs linear-history baselines, Sec. VI-A motivation).
func BenchmarkX1_LSTMPredictor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		scores, err := hierdrl.RunPredictorComparison(800, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, s := range scores {
				b.ReportMetric(s.RMSELog, s.Name+"_rmse_log")
			}
		}
	}
}

// BenchmarkX2_Ablation regenerates the Fig. 6 architecture ablation
// (autoencoder and weight sharing, K in {2,3}).
func BenchmarkX2_Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := hierdrl.RunAblation(12, 60, []int{2, 3}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range results {
				if r.K == 3 {
					b.ReportMetric(r.FinalLoss, r.Variant+"_loss")
				}
			}
		}
	}
}

// --- Micro-benchmarks of the hot paths ---

// BenchmarkQNetworkInference measures one global-tier decision: Q values for
// all M=30 actions through the autoencoder + Sub-Q architecture.
func BenchmarkQNetworkInference(b *testing.B) {
	cfg := global.DefaultConfig(30)
	enc, err := global.NewEncoder(30, cfg.K, cfg.DurationNormSec)
	if err != nil {
		b.Fatal(err)
	}
	rng := mat.NewRNG(1)
	net := global.NewQNetwork(enc, cfg, rng)
	v := benchView(30, rng)
	j := &cluster.Job{Duration: 600, Req: cluster.Resources{0.2, 0.1, 0.1}}
	s := enc.Encode(v, j)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.QValues(s)
	}
}

// BenchmarkQNetworkTrainBatch measures one DNN minibatch update (32
// transitions with SMDP targets already computed).
func BenchmarkQNetworkTrainBatch(b *testing.B) {
	cfg := global.DefaultConfig(30)
	enc, err := global.NewEncoder(30, cfg.K, cfg.DurationNormSec)
	if err != nil {
		b.Fatal(err)
	}
	rng := mat.NewRNG(1)
	net := global.NewQNetwork(enc, cfg, rng)
	opt := nn.NewAdam(1e-3)
	j := &cluster.Job{Duration: 600, Req: cluster.Resources{0.2, 0.1, 0.1}}
	batch := make([]global.TrainItem, 32)
	for i := range batch {
		batch[i] = global.TrainItem{
			S:      enc.Encode(benchView(30, rng), j),
			Action: rng.Intn(30),
			Target: rng.Normal(0, 1),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.TrainBatch(batch, opt)
	}
}

// BenchmarkLSTMBPTT measures one paper-sized training sample: BPTT through a
// 35-step window with 30 hidden units.
func BenchmarkLSTMBPTT(b *testing.B) {
	rng := mat.NewRNG(1)
	net := lstm.NewNetwork(lstm.DefaultNetworkConfig(), rng)
	window := make([]float64, 35)
	for i := range window {
		window[i] = rng.Normal(0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.BPTT(window, 0.5, 1)
	}
}

// BenchmarkLSTMPredict measures one inference through the 35-step window.
func BenchmarkLSTMPredict(b *testing.B) {
	rng := mat.NewRNG(1)
	net := lstm.NewNetwork(lstm.DefaultNetworkConfig(), rng)
	window := make([]float64, 35)
	for i := range window {
		window[i] = rng.Normal(0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Predict(window)
	}
}

// BenchmarkMatMulVec measures the tiled GEMV kernel at the Sub-Q head's
// layer-1 shape (128x64 weight, single sample).
func BenchmarkMatMulVec(b *testing.B) {
	rng := mat.NewRNG(1)
	W := mat.NewDense(128, 64)
	rng.FillNormal(W, 0, 1)
	x := mat.NewVec(64)
	for i := range x {
		x[i] = rng.Normal(0, 1)
	}
	dst := mat.NewVec(128)
	b.SetBytes(int64(128 * 64 * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		W.MulVec(x, dst)
	}
}

// BenchmarkMatMulMat measures the batched GEMM path at the target-network
// evaluation shape (96-row minibatch through the 128x64 layer).
func BenchmarkMatMulMat(b *testing.B) {
	rng := mat.NewRNG(1)
	X := mat.NewDense(96, 64)
	rng.FillNormal(X, 0, 1)
	W := mat.NewDense(128, 64)
	rng.FillNormal(W, 0, 1)
	Y := mat.NewDense(96, 128)
	b.SetBytes(int64(96 * 64 * 128 * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.MulMatT(X, W, Y)
	}
}

// BenchmarkQNetInferBatch measures the batched target-network evaluation:
// max-Q for 32 states through all K heads in one forward.
func BenchmarkQNetInferBatch(b *testing.B) {
	cfg := global.DefaultConfig(30)
	enc, err := global.NewEncoder(30, cfg.K, cfg.DurationNormSec)
	if err != nil {
		b.Fatal(err)
	}
	rng := mat.NewRNG(1)
	net := global.NewQNetwork(enc, cfg, rng)
	j := &cluster.Job{Duration: 600, Req: cluster.Resources{0.2, 0.1, 0.1}}
	states := make([]global.State, 32)
	for i := range states {
		states[i] = enc.Encode(benchView(30, rng), j)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.MaxQBatch(states)
	}
}

// BenchmarkEventLoop measures steady-state event throughput through the
// pooled, closure-free scheduling path: one self-rearming timer, zero
// allocations per event once the slot pool is warm.
func BenchmarkEventLoop(b *testing.B) {
	s := sim.New()
	var tick func(any)
	tick = func(a any) { s.ScheduleAfterArg(1, tick, a) }
	s.ScheduleArg(0, tick, s)
	for i := 0; i < 64; i++ {
		s.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkSnapshot measures one per-arrival cluster observation: refreshing
// a reused View for an M=30 cluster.
func BenchmarkSnapshot(b *testing.B) {
	cl, err := cluster.NewSharded(cluster.DefaultConfig(30), []*sim.Simulator{sim.New()}, func(int) cluster.DPMPolicy {
		return benchAlwaysOn{}
	})
	if err != nil {
		b.Fatal(err)
	}
	var v cluster.View
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.SnapshotInto(&v)
	}
}

// benchAlwaysOn avoids importing internal/local just for the benchmark.
type benchAlwaysOn struct{}

func (benchAlwaysOn) OnIdle(sim.Time, *cluster.Server) float64                { return 1e18 }
func (benchAlwaysOn) OnArrival(sim.Time, *cluster.Server, cluster.PowerState) {}
func (benchAlwaysOn) Observe(sim.Time, float64, int)                          {}

// BenchmarkAllocateEpoch measures one full DRL decision epoch on a warm
// M=30 agent: state encode, transition close into the pooled replay, Q
// inference, epsilon-greedy selection, integrator reset — plus the amortized
// share of minibatch training (every TrainEvery-th epoch trains).
func BenchmarkAllocateEpoch(b *testing.B) {
	m := 30
	cfg := global.DefaultConfig(m)
	rng := mat.NewRNG(1)
	agent, err := global.NewAgent(cfg, m, rng)
	if err != nil {
		b.Fatal(err)
	}
	v := benchView(m, rng)
	j := &cluster.Job{Duration: 600, Req: cluster.Resources{0.2, 0.1, 0.1}}
	now := 0.0
	agent.ObserveCluster(0, 3000, 10, 1)
	epoch := func() {
		now += 5
		v.Now = sim.Time(now)
		agent.ObserveCluster(v.Now, 3000, 10, 1)
		agent.Allocate(j, v)
	}
	for i := 0; i < 2*cfg.TrainEvery; i++ {
		epoch()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch()
	}
}

// BenchmarkSimulatorEvents measures raw event-queue throughput.
func BenchmarkSimulatorEvents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.New()
		var tick func()
		n := 0
		tick = func() {
			n++
			if n < 1000 {
				s.ScheduleAfter(1, tick)
			}
		}
		s.Schedule(0, tick)
		s.RunAll(2000)
	}
}

// BenchmarkClusterRoundRobin measures end-to-end simulation throughput
// without any learning in the loop (round-robin + always-on).
func BenchmarkClusterRoundRobin(b *testing.B) {
	tr := hierdrl.SyntheticTraceForCluster(2000, 30, 1)
	cfg := hierdrl.RoundRobin(30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hierdrl.Run(cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
}

func benchView(m int, rng *mat.RNG) *cluster.View {
	v := &cluster.View{
		M:        m,
		Util:     make([]cluster.Resources, m),
		Pending:  make([]cluster.Resources, m),
		QueueLen: make([]int, m),
		InSystem: make([]int, m),
		State:    make([]cluster.PowerState, m),
	}
	for i := 0; i < m; i++ {
		v.Util[i] = cluster.Resources{rng.Float64(), rng.Float64(), rng.Float64()}
		v.State[i] = cluster.StateActive
	}
	return v
}

// BenchmarkShardedEpoch measures the parallel tier's per-job overhead end to
// end at a deliberately small scale (M=64, P=2, least-loaded over the RL
// local tier): barrier release/join, lane stepping, merged log replay,
// load-index allocation, and dispatch. One op = one job pushed through a
// sharded session, so this row tracks the epoch machinery's cost across PRs
// independently of the big scale runs (BENCH_scale.json).
func BenchmarkShardedEpoch(b *testing.B) {
	cfg := hierdrl.ScaleSim(64)
	src, err := hierdrl.ScaleStream(2000+b.N, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	s, err := hierdrl.NewSession(cfg, hierdrl.WithShards(2), hierdrl.WithExpectedJobs(2000+b.N))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	tr := &hierdrl.Trace{Jobs: make([]hierdrl.Job, 0, 2000+b.N)}
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		tr.Jobs = append(tr.Jobs, j)
	}
	if err := s.SubmitTrace(tr); err != nil {
		b.Fatal(err)
	}
	// Warm every pool (event slots, job pool, logs, metric buffers) on the
	// first 2000 jobs, then measure live epochs.
	warmup := tr.Jobs[1999].Arrival
	if err := s.StepUntil(hierdrl.Time(warmup)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := s.Drain(); err != nil {
		b.Fatal(err)
	}
}
