// Command perfbench is the repository benchmark. It runs one named workload
// against the simulator's public APIs (ebs, simnet, sim) for a host-time
// budget, checks that every output is correct, and prints one JSON result
// line: the end-to-end metrics, or with -trace 1 the per-module breakdown.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload solar-write --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to the function that runs one round
// of it.
var workloads = map[string]func(*round) error{
	"solar-write":    solarWrite,
	"mixed-failover": mixedFailover,
	"fabric-bulk":    fabricBulk,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; traffic, fault times and engine seeds derive from it")
	seconds := fs.Int("seconds", 10, "host seconds to measure for")
	traced := fs.Int("trace", 0, "1 runs the traced variant and reports the per-module metrics")
	out := fs.String("out", ".bench_build/perfbench-out", "directory for fingerprints, spans and CPU profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	// One simulation engine per process; a second P lets the collector
	// run beside it without oversubscribing a small machine.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	cfg := runConfig{
		workload: *name,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		traced:   *traced == 1,
		out:      *out,
	}
	res, err := measure(wl, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", *name, *seed, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
