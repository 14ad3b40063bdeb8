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
	"flag"
	"fmt"
	"os"

	"persistmem/internal/bench"
)

func main() {
	var (
		scale    = flag.String("scale", "quick", "run scale: full (2s arrival window), quick (1s), smoke (500ms); the cell grid is identical at every scale")
		seed     = flag.Int64("seed", 1, "simulation seed")
		csv      = flag.Bool("csv", false, "emit the per-cell CSV instead of summary tables")
		check    = flag.Bool("check", false, "run shape checks (knee present, p99 rising past it, shard/volume scaling monotone) and exit non-zero on failure")
		parallel = flag.Int("parallel", 0, "sweep cells simulated concurrently (0 = one per CPU, 1 = sequential); output is identical at any setting")
		crossPct = flag.Float64("cross-shard-pct", 0, "percentage of write transactions committed cross-shard under the two-phase outcome-record protocol, applied to every standard sweep cell (the xshard sweep keeps its fixed axis); 0 leaves every schedule untouched")
	)
	flag.Parse()
	sc, err := bench.ParseSatScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	runner := bench.Runner{Parallelism: *parallel, CrossShardPct: *crossPct}

	sat := runner.Saturation(*seed, sc)
	if *csv {
		fmt.Print(sat.CSV())
	} else {
		fmt.Println(sat.Table())
	}
	if *check {
		failures := 0
		for _, err := range sat.CheckShape() {
			fmt.Fprintf(os.Stderr, "SHAPE: %v\n", err)
			failures++
		}
		if failures > 0 {
			fmt.Fprintf(os.Stderr, "%d shape check(s) failed\n", failures)
			os.Exit(1)
		}
	}
}
