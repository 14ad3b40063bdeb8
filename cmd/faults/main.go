// Command faults sweeps a (durability × fault × phase) matrix of
// deterministic mid-flight fault-injection scenarios and holds each one
// against the paper's §5 claims: no committed transaction lost, no
// in-flight transaction resurrected, takeover within the bound, and
// recovery within the MTTR budget that §1.3's availability class
// implies. The matrix itself is bench.Runner.FaultMatrix; two runs with
// the same seed print byte-identical tables at any -parallel setting.
package main

import (
	"flag"
	"fmt"
	"os"

	"persistmem/internal/bench"
	"persistmem/internal/sim"
)

func main() {
	var (
		txns     = flag.Int("txns", 12, "transactions attempted before the crash (4 inserts each)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		paceMs   = flag.Int("pace", 20, "milliseconds of think time before each transaction")
		chaos    = flag.Int("chaos", 2, "random chaos plans appended to the matrix (0 disables)")
		parallel = flag.Int("parallel", 0, "cells simulated concurrently (0 = one per CPU, 1 = sequential); output is identical at any setting")
		nines    = flag.Int("nines", 5, "availability class the MTTR budget is derived from")
		mtbfDays = flag.Int("mtbf-days", 30, "assumed mean time between failures, in days")
		violPath = flag.String("violations", "", "write every cell's failed invariants and history-checker violations to this file; an empty file proves the matrix ran clean")
	)
	flag.Parse()

	m := bench.Runner{Parallelism: *parallel}.FaultMatrix(bench.FaultConfig{
		Txns:     *txns,
		Seed:     *seed,
		Pace:     sim.Time(*paceMs) * sim.Millisecond,
		Chaos:    *chaos,
		Nines:    *nines,
		MTBFDays: *mtbfDays,
	})
	fmt.Print(m.Table())
	if *violPath != "" {
		if err := os.WriteFile(*violPath, []byte(m.Violations()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if !m.Passed() {
		os.Exit(1)
	}
}
