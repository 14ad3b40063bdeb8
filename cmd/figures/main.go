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

	"persistmem/internal/bench"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "which experiment: all, 1, 2, c1, c2, c3, a1, a2, a3, a4")
		scale    = flag.String("scale", "quick", "run scale: full (paper, 32000 records/driver), quick, smoke")
		seed     = flag.Int64("seed", 1, "simulation seed")
		csv      = flag.Bool("csv", false, "emit CSV instead of tables (figures 1 and 2)")
		check    = flag.Bool("check", false, "run shape checks and exit non-zero on failure")
		breakdn  = flag.Bool("breakdown", false, "emit the commit-latency decomposition (per-phase p50/p99 per durability config)")
		parallel = flag.Int("parallel", 0, "sweep cells simulated concurrently (0 = one per CPU, 1 = sequential); output is identical at any setting")
	)
	flag.Parse()
	runner := bench.Runner{Parallelism: *parallel}

	var sc bench.Scale
	switch *scale {
	case "full":
		sc = bench.Full
	case "quick":
		sc = bench.Quick
	case "smoke":
		sc = bench.Smoke
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}

	failures := 0
	report := func(errs []error) {
		for _, err := range errs {
			fmt.Fprintf(os.Stderr, "SHAPE: %v\n", err)
			failures++
		}
	}
	want := func(name string) bool { return *fig == "all" || *fig == name }

	if *breakdn {
		b := runner.Breakdown(*seed, sc)
		if *csv {
			fmt.Print(b.CSV())
		} else {
			fmt.Println(b.Table())
		}
		if *check {
			report(b.CheckShape())
		}
		if failures > 0 {
			fmt.Fprintf(os.Stderr, "%d shape check(s) failed\n", failures)
			os.Exit(1)
		}
		return
	}

	if want("1") {
		f := runner.Figure1(*seed, sc)
		if *csv {
			fmt.Print(f.CSV())
		} else {
			fmt.Println(f.Table())
		}
		if *check {
			report(f.CheckShape())
		}
	}
	if want("2") {
		f := runner.Figure2(*seed, sc)
		if *csv {
			fmt.Print(f.CSV())
		} else {
			fmt.Println(f.Table())
		}
		if *check {
			report(f.CheckShape())
		}
	}
	if want("c1") {
		c := bench.RunClaimC1(*seed)
		fmt.Println(c.Table())
		if *check {
			report(c.CheckShape())
		}
	}
	if want("c2") {
		c := runner.ClaimC2(*seed, sc)
		fmt.Println(c.Table())
		if *check {
			report(c.CheckShape())
		}
	}
	if want("c3") {
		c := runner.ClaimC3(*seed, sc)
		fmt.Println(c.Table())
		if *check {
			report(c.CheckShape())
		}
	}
	if want("a1") {
		a := runner.AblationA1(*seed, sc)
		fmt.Println(a.Table())
		if *check {
			report(a.CheckShape())
		}
	}
	if want("a2") {
		a := runner.AblationA2(*seed, sc)
		fmt.Println(a.Table())
		if *check {
			report(a.CheckShape())
		}
	}
	if want("a3") {
		a := runner.AblationA3(*seed, sc)
		fmt.Println(a.Table())
		if *check {
			report(a.CheckShape())
		}
	}
	if want("a4") {
		a := runner.AblationA4(*seed, sc)
		fmt.Println(a.Table())
		if *check {
			report(a.CheckShape())
		}
	}

	if failures > 0 {
		fmt.Fprintf(os.Stderr, "%d shape check(s) failed\n", failures)
		os.Exit(1)
	}
}
