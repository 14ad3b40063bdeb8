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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"persistmem/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, prints the chosen experiments to
// stdout and returns the exit code — 0 on success, 1 when a -check shape
// check failed, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(bench.Experiments))
	for i, e := range bench.Experiments {
		names[i] = e.Name
	}
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig      = fs.String("fig", "all", "which experiment: all, "+strings.Join(names, ", "))
		scale    = fs.String("scale", "quick", "run scale: full (paper, 32000 records/driver), quick, smoke")
		seed     = fs.Int64("seed", 1, "simulation seed")
		csv      = fs.Bool("csv", false, "emit CSV instead of tables (figures 1 and 2)")
		check    = fs.Bool("check", false, "run shape checks and exit non-zero on failure")
		breakdn  = fs.Bool("breakdown", false, "emit the commit-latency decomposition (per-phase p50/p99 per durability config)")
		parallel = fs.Int("parallel", 0, "sweep cells simulated concurrently (0 = one per CPU, 1 = sequential); output is identical at any setting")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	runner := bench.Runner{Parallelism: *parallel}
	sc, err := bench.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	failures := 0
	// emit prints one experiment — as CSV when asked and the experiment
	// has one — and counts its shape breaks.
	emit := func(res bench.Result) {
		if c, ok := res.(interface{ CSV() string }); ok && *csv {
			fmt.Fprint(stdout, c.CSV())
		} else {
			fmt.Fprintln(stdout, res.Table())
		}
		if *check {
			for _, err := range res.CheckShape() {
				fmt.Fprintf(stderr, "SHAPE: %v\n", err)
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
		fmt.Fprintf(stderr, "%d shape check(s) failed\n", failures)
		return 1
	}
	return 0
}
