// Command mttr runs the paper's claim-C2 experiment: after a crash with
// committed work in the durable trail and one transaction in flight, how
// long does restart recovery take? It compares the disk path (sequential
// audit-volume scan, two passes) against the PM path (RDMA log reads with
// fine-grained transaction control blocks), and verifies both rebuild the
// same committed image.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"persistmem/internal/avail"
	"persistmem/internal/bench"
	"persistmem/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, prints the comparison to stdout and
// returns the exit code — 0 on success, 1 when a recovery path failed or
// the paths rebuilt different images, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mttr", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		txns     = fs.Int("txns", 500, "committed transactions before the crash (4 x 4KB inserts each)")
		seed     = fs.Int64("seed", 1, "simulation seed")
		parallel = fs.Int("parallel", 0, "recovery scenarios simulated concurrently (0 = one per CPU, 1 = sequential); output is identical at any setting")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	fmt.Fprintf(stdout, "crash scenario: %d committed transactions + 1 in flight, then power failure\n\n", *txns)

	// The experiment is claim C2's: three independent crash scenarios,
	// one per recovery path, fanned out across the pool.
	c := bench.Runner{Parallelism: *parallel}.ClaimC2Txns(*seed, *txns)
	for _, p := range c.Paths {
		if p.Err != nil {
			fmt.Fprintln(stderr, p.Err)
			return 1
		}
	}

	fmt.Fprintf(stdout, "%-30s %12s %10s %10s %10s %8s\n",
		"recovery path", "MTTR", "read", "records", "committed", "rows")
	for _, p := range c.Paths {
		fmt.Fprintf(stdout, "%-30s %12v %9dK %10d %10d %8d\n",
			p.Name, p.Report.MTTR, p.Report.BytesRead/1024, p.Report.RecordsScanned,
			p.Report.Committed, p.Rows)
	}
	disk, tcb := c.Paths[0], c.Paths[2]
	fmt.Fprintf(stdout, "\nPM with TCBs is %.1fx faster to recover than the disk path.\n",
		float64(disk.Report.MTTR)/float64(tcb.Report.MTTR))
	if disk.Rows != tcb.Rows {
		fmt.Fprintln(stderr, "WARNING: recovered images differ in row count")
		return 1
	}

	// §1.3: MTTR is "the mantra for both better availability and data
	// integrity" — project what these recovery times mean at one node
	// crash per month.
	month := 30 * 24 * 3600 * sim.Second
	fmt.Fprintf(stdout, "\nprojected availability at one crash/month (MTBF=%v):\n", month)
	for _, p := range c.Paths {
		_, class := avail.Project(month, p.Report.MTTR)
		fmt.Fprintf(stdout, "  %-30s %s\n", p.Name, class)
	}
	return 0
}
