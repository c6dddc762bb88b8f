package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// expectedJSON records, per workload and seed, the simulated results every
// run must reproduce bit for bit, and the machine the timings were taken on.
// Regenerate it with --record after a change that is meant to alter the
// simulation.
//
//go:embed expected.json
var expectedJSON []byte

type expectedFile struct {
	// Context is the one machine the benchmark's timings come from.
	Context machineContext `json:"context"`
	// TuningSeed is the seed used while tuning the benchmark; HeldOutSeed is
	// a second seed on which any later performance claim must also hold.
	TuningSeed  int64 `json:"tuning_seed"`
	HeldOutSeed int64 `json:"held_out_seed"`
	// Workloads maps workload -> seed -> exact simulated results.
	Workloads map[string]map[string]simStats `json:"workloads"`
}

type machineContext struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func loadExpected() (*expectedFile, error) {
	var f expectedFile
	if err := json.Unmarshal(expectedJSON, &f); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &f, nil
}

// recorded returns the recorded results of workload at seed, if any.
func (f *expectedFile) recorded(workload string, seed int64) (simStats, bool) {
	s, ok := f.Workloads[workload][strconv.FormatInt(seed, 10)]
	return s, ok
}

func currentContext() machineContext {
	return machineContext{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// record runs one untraced pass of every workload at each seed and writes the
// results, with the current machine context, to path. It fails if scale-p2
// differs from scale-p1 at any seed.
func record(path string, seeds []int64, tuning, heldOut int64) error {
	f := expectedFile{
		Context:     currentContext(),
		TuningSeed:  tuning,
		HeldOutSeed: heldOut,
		Workloads:   map[string]map[string]simStats{},
	}
	for _, w := range workloads {
		f.Workloads[w.name] = map[string]simStats{}
		for _, seed := range seeds {
			cfg, jobs, err := w.inputs(seed)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			pr, err := runPass(w, cfg, jobs)
			if err == nil && pr.completed+pr.lost != pr.submitted {
				err = fmt.Errorf("%d of %d jobs accounted for", pr.completed+pr.lost, pr.submitted)
			}
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			key := strconv.FormatInt(seed, 10)
			if w.name == "scale-p2" && pr.sim != f.Workloads["scale-p1"][key] {
				return fmt.Errorf("seed %d: scale-p2 %+v differs from scale-p1 %+v", seed, pr.sim, f.Workloads["scale-p1"][key])
			}
			f.Workloads[w.name][key] = pr.sim
			fmt.Fprintf(os.Stderr, "recorded %s seed %d: %+v\n", w.name, seed, pr.sim)
		}
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
