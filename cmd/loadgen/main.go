// Command loadgen runs the open-loop saturation sweep: offered load x
// durability knee curves, shard-count scaling under Zipf skew, and
// data-volume scaling, all driven by the deterministic open-loop
// harness in internal/loadgen.
//
// Usage:
//
//	loadgen -scale smoke                  # fast sweep, summary tables
//	loadgen -scale full -csv              # the committed saturation_full.csv
//	loadgen -scale full -check            # exit non-zero on shape breaks
//	loadgen -parallel 8                   # identical output, any setting
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"persistmem/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, prints the sweep to stdout and
// returns the exit code — 0 on success, 1 when a -check shape check
// failed, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale    = fs.String("scale", "quick", "run scale: full (2s arrival window), quick (1s), smoke (500ms); the cell grid is identical at every scale")
		seed     = fs.Int64("seed", 1, "simulation seed")
		csv      = fs.Bool("csv", false, "emit the per-cell CSV instead of summary tables")
		check    = fs.Bool("check", false, "run shape checks (knee present, p99 rising past it, shard/volume scaling monotone) and exit non-zero on failure")
		parallel = fs.Int("parallel", 0, "sweep cells simulated concurrently (0 = one per CPU, 1 = sequential); output is identical at any setting")
		crossPct = fs.Float64("cross-shard-pct", 0, "percentage of write transactions committed cross-shard under the two-phase outcome-record protocol, applied to every standard sweep cell (the xshard sweep keeps its fixed axis); 0 leaves every schedule untouched")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	sc, err := bench.ParseSatScale(*scale)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	runner := bench.Runner{Parallelism: *parallel, CrossShardPct: *crossPct}

	sat := runner.Saturation(*seed, sc)
	if *csv {
		fmt.Fprint(stdout, sat.CSV())
	} else {
		fmt.Fprintln(stdout, sat.Table())
	}
	if *check {
		failures := 0
		for _, err := range sat.CheckShape() {
			fmt.Fprintf(stderr, "SHAPE: %v\n", err)
			failures++
		}
		if failures > 0 {
			fmt.Fprintf(stderr, "%d shape check(s) failed\n", failures)
			return 1
		}
	}
	return 0
}
