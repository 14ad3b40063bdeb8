// Command figures regenerates the paper's evaluation: Figure 1 (response-
// time speedup with PM vs transaction size) and Figure 2 (elapsed time vs
// transaction size), plus measured tables for the paper's prose claims
// (C1 latency gap, C3 write amplification) and the repository's ablations
// (A1 group commit, A2 mirroring, A3 fabric latency).
//
// Usage:
//
//	figures -fig all -scale quick        # everything, 1/40 paper scale
//	figures -fig 1 -scale full           # Figure 1 at the paper's 32000
//	                                     # records per driver
//	figures -fig 2 -csv                  # machine-readable series
//	figures -check                       # exit non-zero on shape breaks
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"persistmem/internal/bench"
)

func main() {
	names := make([]string, len(bench.Experiments))
	for i, e := range bench.Experiments {
		names[i] = e.Name
	}
	var (
		fig      = flag.String("fig", "all", "which experiment: all, "+strings.Join(names, ", "))
		scale    = flag.String("scale", "quick", "run scale: full (paper, 32000 records/driver), quick, smoke")
		seed     = flag.Int64("seed", 1, "simulation seed")
		csv      = flag.Bool("csv", false, "emit CSV instead of tables (figures 1 and 2)")
		check    = flag.Bool("check", false, "run shape checks and exit non-zero on failure")
		breakdn  = flag.Bool("breakdown", false, "emit the commit-latency decomposition (per-phase p50/p99 per durability config)")
		parallel = flag.Int("parallel", 0, "sweep cells simulated concurrently (0 = one per CPU, 1 = sequential); output is identical at any setting")
	)
	flag.Parse()
	runner := bench.Runner{Parallelism: *parallel}
	sc, err := bench.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	failures := 0
	// emit prints one experiment — as CSV when asked and the experiment
	// has one — and counts its shape breaks.
	emit := func(res bench.Result) {
		if c, ok := res.(interface{ CSV() string }); ok && *csv {
			fmt.Print(c.CSV())
		} else {
			fmt.Println(res.Table())
		}
		if *check {
			for _, err := range res.CheckShape() {
				fmt.Fprintf(os.Stderr, "SHAPE: %v\n", err)
				failures++
			}
		}
	}
	if *breakdn {
		emit(runner.Breakdown(*seed, sc))
	} else {
		for _, e := range bench.Experiments {
			if *fig == "all" || *fig == e.Name {
				emit(e.Run(runner, *seed, sc))
			}
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "%d shape check(s) failed\n", failures)
		os.Exit(1)
	}
}
