GO ?= go

.PHONY: all build test race vet bench bench-kernels bench-table1 bench-scale bench-check bench-full scale scale-smoke chaos-smoke crash-smoke scenario-smoke obs-smoke profile examples-smoke clean

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The kernel micro-benchmark set (also the CI perf-regression smoke).
KERNEL_BENCH = BenchmarkMatMulVec$$|BenchmarkMatMulMat$$|BenchmarkQNetInferBatch$$|BenchmarkQNetworkInference$$|BenchmarkQNetworkTrainBatch$$|BenchmarkLSTMPredict$$|BenchmarkLSTMBPTT$$|BenchmarkEventLoop$$|BenchmarkSnapshot$$|BenchmarkAllocateEpoch$$|BenchmarkShardedEpoch$$|BenchmarkTDigestAdd$$|BenchmarkTDigestMerge$$|BenchmarkEpochSpanRecord$$
KERNEL_PKGS = . ./internal/telemetry

# bench records the full perf trajectory of a PR as three committed JSONs:
#   BENCH_kernels.json — kernel + hot-path micro-benchmarks
#   BENCH_table1.json  — the end-to-end Table I run (ns/op, allocs/op, bytes)
#   BENCH_scale.json   — the scale-10k preset at P=1/2/4/8 shards
# (benchstat-compatible: the "raw" arrays hold the verbatim benchmark lines.)
bench: bench-kernels bench-table1 bench-scale

bench-kernels:
	$(GO) test -run=NONE \
		-bench='$(KERNEL_BENCH)' \
		-benchmem -count=3 $(KERNEL_PKGS) | $(GO) run ./cmd/benchjson > BENCH_kernels.json
	@echo wrote BENCH_kernels.json

bench-table1:
	$(GO) test -run=NONE -bench='BenchmarkTable1_M30$$' -benchtime=1x -benchmem -count=3 . \
		| $(GO) run ./cmd/benchjson > BENCH_table1.json
	@echo wrote BENCH_table1.json

bench-scale:
	$(GO) run ./cmd/scalebench -shards 1,2,4,8 -json BENCH_scale.json

# bench-check is the CI perf-regression smoke: rerun the kernel set plus the
# Table I benchmark and gate against the committed baselines (alloc-count
# growth always fails; >15% ns/op fails when the cpu matches the baseline's,
# and is a warning across different machines).
bench-check:
	( $(GO) test -run=NONE -bench='$(KERNEL_BENCH)' -benchmem -count=3 $(KERNEL_PKGS) ; \
	  $(GO) test -run=NONE -bench='BenchmarkTable1_M30$$' -benchtime=1x -benchmem -count=1 . ) \
		| $(GO) run ./cmd/benchguard BENCH_kernels.json BENCH_table1.json

# scale prints the sharded engine's speedup table for the scale-10k preset
# at P = 1..NumCPU on this machine; scale-smoke is the reduced CI variant
# (small runners: 2 shards, 1/5 cluster, 1/10 workload).
scale:
	$(GO) run ./cmd/scalebench -cpus

scale-smoke:
	$(GO) run ./cmd/scalebench -shards 1,2 -m 2000 -jobs 200000

# chaos-smoke is the fault-injection CI gate: the observer hammer (crash/
# repair/retry/degrade/drain hooks plus mid-run snapshots at P = 1/2/4), the
# cross-run bitwise reproducibility checks, and the fault-matrix smoke
# (correlated-crash / degrade / maintenance-drain at P = 1/2, fingerprint-
# pinned), all under the race detector.
chaos-smoke:
	$(GO) test -race -run 'TestFaultObserverHammer|TestFaultMatrixObserverHammer|TestFaultReproducibleAcrossRuns|TestNewFaultModelsReproducibleAcrossRuns' -v .

# crash-smoke is the durability CI gate: the mid-run checkpoint/restore
# bitwise matrix across both tiers (incl. fault runs), the corrupt-snapshot
# rejection table, and the end-to-end SIGKILL-and-resume drill against the
# hiersim binary.
crash-smoke:
	$(GO) test -run 'TestCheckpointResumeBitwise|TestRestoreRejectsCorruptSnapshots|TestAutoCheckpointRotationAndResume|TestCrashResumeHarnessCLI' -v .

# scenario-smoke is the workload-subsystem CI gate: every registered
# scenario's Summary must be bitwise identical at P = 1/2/4 shards and run to
# run, the scenario CSV round trip must replay bit for bit, and a single-class
# speed-1.0 cluster must match the homogeneous cluster exactly — all under
# the race detector.
scenario-smoke:
	$(GO) test -race -run 'TestScenarioBitwiseAcrossShards|TestScenarioCSVRoundTrip|TestHomogeneousClassesBitwiseIdentical' -v .

# obs-smoke is the observability CI gate: the live /metrics + /snapshot scrape
# of a sharded fault run with a t-digest p99 accuracy check, the Chrome
# trace-event dump, the telemetry-is-bitwise-invisible pin, and the
# sketch-checkpoint round trip — all under the race detector — plus the
# telemetry package's own zero-alloc and merge-determinism pins.
obs-smoke:
	$(GO) test -race -run 'TestObsSmoke|TestTelemetryPreservesBitwiseMetrics|TestSketchOnlySummary|TestEpochTraceChromeJSON|TestEpochTraceOneShard|TestCheckpointRoundTripSketches' -v .
	$(GO) test -race ./internal/telemetry

# bench-full additionally regenerates the paper tables/figures benchmarks
# (minutes, not seconds).
bench-full:
	$(GO) test -run=NONE -bench=. -benchmem -benchtime=1x . | $(GO) run ./cmd/benchjson > BENCH_full.json
	@echo wrote BENCH_full.json

# examples-smoke builds and runs every examples/ program with a tiny job
# count, exercising the public Session/registry API end to end (CI runs it
# so API drift breaks the build, not users).
examples-smoke:
	$(GO) run ./examples/quickstart -jobs 300 -warmup 80
	$(GO) run ./examples/datacenter -servers 6 -jobs 250 -warmup 60
	$(GO) run ./examples/powermanager -jobs 150
	$(GO) run ./examples/tradeoff -jobs 200 -warmup 50
	$(GO) run ./examples/pluggable -jobs 200 -servers 4
	$(GO) run ./examples/scenario -scenario mixed-het -jobs 400

# profile writes CPU and allocation pprof profiles of the headline
# experiment benchmark (inspect with `go tool pprof cpu.pprof`).
profile:
	$(GO) test -run=NONE -bench='BenchmarkTable1_M30$$' -benchtime=3x \
		-cpuprofile cpu.pprof -memprofile mem.pprof -o hierdrl-bench.test .
	@echo wrote cpu.pprof mem.pprof '(binary: hierdrl-bench.test)'

clean:
	rm -f BENCH_kernels.json BENCH_full.json cpu.pprof mem.pprof hierdrl-bench.test
