// Command faults sweeps a (durability × fault × phase) matrix of
// deterministic mid-flight fault-injection scenarios and holds each one
// against the paper's §5 claims: no committed transaction lost, no
// in-flight transaction resurrected, takeover within the bound, and
// recovery within the MTTR budget that §1.3's availability class
// implies. The matrix itself is bench.Runner.FaultMatrix; two runs with
// the same seed print byte-identical tables at any -parallel setting.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"persistmem/internal/bench"
	"persistmem/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, prints the matrix to stdout and
// returns the exit code — 0 when every cell passed, 1 when one failed, 2 on
// a usage error or an unwritable -violations file.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("faults", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		txns     = fs.Int("txns", 12, "transactions attempted before the crash (4 inserts each)")
		seed     = fs.Int64("seed", 1, "simulation seed")
		paceMs   = fs.Int("pace", 20, "milliseconds of think time before each transaction")
		chaos    = fs.Int("chaos", 2, "random chaos plans appended to the matrix (0 disables)")
		parallel = fs.Int("parallel", 0, "cells simulated concurrently (0 = one per CPU, 1 = sequential); output is identical at any setting")
		nines    = fs.Int("nines", 5, "availability class the MTTR budget is derived from")
		mtbfDays = fs.Int("mtbf-days", 30, "assumed mean time between failures, in days")
		violPath = fs.String("violations", "", "write every cell's failed invariants and history-checker violations to this file; an empty file proves the matrix ran clean")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	m := bench.Runner{Parallelism: *parallel}.FaultMatrix(bench.FaultConfig{
		Txns:     *txns,
		Seed:     *seed,
		Pace:     sim.Time(*paceMs) * sim.Millisecond,
		Chaos:    *chaos,
		Nines:    *nines,
		MTBFDays: *mtbfDays,
	})
	fmt.Fprint(stdout, m.Table())
	if *violPath != "" {
		if err := os.WriteFile(*violPath, []byte(m.Violations()), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	if !m.Passed() {
		return 1
	}
	return 0
}
