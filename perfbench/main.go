// Command perfbench is the repository benchmark. It drives one workload
// per run from a single process, through the public API only, and
// prints every metric by name and unit; its last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads (all closed loops over a fixed, seeded instance set visited
// round-robin in whole cycles of a few seconds each):
//
//	mh-classic       MH on the paper's single-bus 10-node family
//	sa-multicluster  SA with reduced iterations on a 3-cluster platform
//	serve-mixed      two HTTP clients against the in-process serve handler
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it alternates untraced and traced cycles, records spans around every
// public call it makes, replays the per-evaluation layers on each
// returned design, and reports the per-layer metrics instead. Spans are
// kept in memory and written to .bench_build/spans/ at exit.
//
// Build and run it with perfbench/run.sh from the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one benchmark run.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Tiny shrinks every instance set so a run completes in about a
	// second; the benchmark's own tests use it.
	Tiny bool
	// SpansOut is the JSON-lines file the traced run writes its spans to
	// ("" skips writing).
	SpansOut string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to its runner. A runner prints its
// human-readable lines to out and returns the result.
var workloads = map[string]func(config, io.Writer) (*result, error){
	"mh-classic":      runSolver,
	"sa-multicluster": runSolver,
	"serve-mixed":     runServe,
}

func main() {
	var (
		cfg   config
		trace int
	)
	flag.StringVar(&cfg.Workload, "workload", "", "workload: mh-classic, sa-multicluster or serve-mixed")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.Seconds, "seconds", 25, "measured time; the run ends at the first complete cycle after it")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.Trace = trace == 1
	if cfg.Trace {
		cfg.SpansOut = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", cfg.Workload, cfg.Seed))
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one configured run.
func run(cfg config, out io.Writer) (*result, error) {
	fn, ok := workloads[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	// Input synthesis may use every CPU; each runner pins GOMAXPROCS for
	// its own set-up and measured phase and this restores it afterwards.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	start := time.Now()
	res, err := fn(cfg, out)
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Fprintf(out, "run: workload=%s seed=%d trace=%v attempted=%d failed=%d wall=%.1fs\n",
		cfg.Workload, cfg.Seed, cfg.Trace, res.Attempted, res.Failed, time.Since(start).Seconds())
	return res, nil
}
