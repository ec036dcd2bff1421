// Command benchdiff compares two bench reports produced by
// `incbench -bench-out` and fails when the candidate regresses beyond a
// threshold.
//
// Usage:
//
//	benchdiff [-threshold 0.25] [-min-wall-ms 20] [-min-median-speedup R]
//	          baseline.json candidate.json
//
// Per matched (fig, size, strategy) point, wall time may grow and
// evaluation throughput may shrink by at most the threshold; points
// whose baseline wall time is under the floor are skipped (they are too
// fast to time meaningfully). Evaluation-count drift, missing points
// and metadata mismatches are reported as notes but do not fail the
// comparison — a changed algorithm is a review question, not a perf
// regression.
//
// -min-median-speedup additionally requires the median candidate/
// baseline evals_per_sec ratio to reach R (1.0 = "no slower in the
// median"); 0 disables the check. It gates an optimization that claims
// a throughput gain against a sweep of the same workload without it.
//
// Exit status: 0 when no point regresses, 1 on regressions (or a
// missed median-speedup floor), 2 on usage or I/O errors — including a
// report whose schema_version is newer than this binary understands.
package main

import (
	"flag"
	"fmt"
	"os"

	"incdes/internal/bench"
)

func main() {
	threshold := flag.Float64("threshold", 0.25, "tolerated relative slowdown per point (0.25 = 25%)")
	minWall := flag.Float64("min-wall-ms", 20, "skip timing comparison for points faster than this baseline wall time")
	minSpeedup := flag.Float64("min-median-speedup", 0, "require the median candidate/baseline evals_per_sec ratio to reach this value (0 disables)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold T] [-min-wall-ms MS] [-min-median-speedup R] baseline.json candidate.json")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}

	base, err := bench.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	cand, err := bench.ReadFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	regs, notes := bench.Compare(base, cand, bench.CompareOptions{
		Threshold: *threshold,
		MinWallMS: *minWall,
	})
	for _, n := range notes {
		fmt.Println("note:", n)
	}
	fmt.Printf("compared %d candidate points against %s (threshold %.0f%%, floor %.0fms)\n",
		len(cand.Points), flag.Arg(0), *threshold*100, *minWall)
	failed := false
	if *minSpeedup > 0 {
		ratio, ok := bench.MedianSpeedup(base, cand, *minWall)
		switch {
		case !ok:
			fmt.Println("REGRESSION: no points comparable for the median-speedup check")
			failed = true
		case ratio < *minSpeedup:
			fmt.Printf("REGRESSION: median evals/sec speedup %.3fx below required %.3fx\n", ratio, *minSpeedup)
			failed = true
		default:
			fmt.Printf("median evals/sec speedup %.3fx (required %.3fx)\n", ratio, *minSpeedup)
		}
	}
	if len(regs) == 0 && !failed {
		fmt.Println("no perf regressions")
		return
	}
	for _, d := range regs {
		fmt.Println("REGRESSION:", d)
	}
	if len(regs) > 0 {
		fmt.Printf("%d perf regressions beyond %.0f%%\n", len(regs), *threshold*100)
	}
	os.Exit(1)
}
