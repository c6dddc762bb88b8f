package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runAll runs every workload at every seed, untraced and then traced, each
// in its own child process (so peak RSS is per workload), and prints the
// metric tables. It reports whether every run was correct.
func runAll(exp *expectedFile, seeds []int64, seconds int) bool {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return false
	}
	ok := true
	ctx := currentContext()
	fmt.Printf("machine: %s, nproc %d, GOMAXPROCS %d, %s (recorded on: %s, nproc %d)\n",
		ctx.CPU, ctx.NProc, ctx.GOMAXPROCS, ctx.GoVersion, exp.Context.CPU, exp.Context.NProc)
	for _, trace := range []int{0, 1} {
		defs, runSeeds := endToEnd, seeds
		if trace == 1 {
			defs, runSeeds = perLayer, seeds[:1]
		}
		// vals[workload][metric] holds one value per seed.
		vals := map[string]map[string][]float64{}
		for _, w := range workloads {
			vals[w.name] = map[string][]float64{}
			for _, seed := range runSeeds {
				res, err := runChild(self, w.name, seed, seconds, trace)
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: %s seed %d trace %d: %v\n", w.name, seed, trace, err)
					ok = false
					continue
				}
				ok = ok && res.Correct
				for name, mv := range res.Metrics {
					vals[w.name][name] = append(vals[w.name][name], mv.Value)
				}
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d trace %d: correct=%v attempted=%d failed=%d\n",
					w.name, seed, trace, res.Correct, res.Attempted, res.Failed)
			}
		}
		printTable(defs, vals, len(runSeeds))
		if trace == 0 {
			printRatio(vals)
		} else {
			printLargestPhase(vals)
		}
	}
	return ok
}

func runChild(self, workload string, seed int64, seconds, trace int) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}

// printTable prints one row per metric and one column per workload: the
// value, or with several seeds the median and the quartile spread.
func printTable(defs []metricDef, vals map[string]map[string][]float64, nSeeds int) {
	fmt.Println()
	head := fmt.Sprintf("%-30s %-10s", "metric", "unit")
	for _, w := range workloads {
		head += fmt.Sprintf(" %22s", w.name)
	}
	fmt.Println(head)
	for _, d := range defs {
		row := fmt.Sprintf("%-30s %-10s", d.Name, d.Unit)
		for _, w := range workloads {
			vs := vals[w.name][d.Name]
			switch {
			case len(vs) == 0:
				row += fmt.Sprintf(" %22s", "-")
			case nSeeds == 1:
				row += fmt.Sprintf(" %22.6g", vs[0])
			default:
				row += fmt.Sprintf(" %13.6g ±%6.2f%%", median(vs), 100*spread(vs))
			}
		}
		fmt.Println(row)
	}
	if nSeeds > 1 {
		fmt.Printf("(median over %d seeds ± quartile distance as a share of the median)\n", nSeeds)
	}
}

// printRatio states the parallel tier's throughput against the strict tier
// on identical inputs, with its base.
func printRatio(vals map[string]map[string][]float64) {
	p1, p2 := median(vals["scale-p1"]["jobs_per_s"]), median(vals["scale-p2"]["jobs_per_s"])
	verdict := "the parallel tier wins"
	if p2 < p1 {
		verdict = "the parallel tier loses"
	}
	fmt.Printf("scale-p2/scale-p1 jobs_per_s = %.3fx (base scale-p1 = %.6g jobs/s): %s\n", p2/p1, p1, verdict)
}

// printLargestPhase names, for each parallel-tier workload, the shard.*
// phase with the largest total in the traced run.
func printLargestPhase(vals map[string]map[string][]float64) {
	for _, w := range workloads {
		if w.shards < 2 {
			continue
		}
		best, total := "", 0.0
		for _, ph := range shardPhases {
			v := median(vals[w.name][ph.metric])
			total += v
			if best == "" || v > median(vals[w.name][best]) {
				best = ph.metric
			}
		}
		fmt.Printf("%s: largest shard phase %s = %.4g s of %.4g s in all shard phases\n",
			w.name, best, median(vals[w.name][best]), total)
	}
}
