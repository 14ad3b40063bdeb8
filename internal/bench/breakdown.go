package bench

import (
	"fmt"
	"strings"

	"persistmem/internal/hotstock"
	"persistmem/internal/metrics"
	"persistmem/internal/ods"
	"persistmem/internal/sim"
)

// breakdownConfigs are the durability configurations the decomposition
// table covers, in presentation order.
var breakdownConfigs = []ods.Durability{
	ods.DiskDurability, ods.PMDurability, ods.PMDirectDurability,
}

// BreakdownRow is one durability configuration's commit-latency
// decomposition.
type BreakdownRow struct {
	Durability ods.Durability
	// Phases holds one row per commit phase, in path order.
	Phases []metrics.PhaseStat
	// Total is the client-visible begin→commit distribution.
	Total metrics.PhaseStat
	// TilingError is Σ phase sums − total sum; exactly zero whenever the
	// instrumentation is healthy (the marks telescope).
	TilingError sim.Time
	// Incomplete and Open report instrumentation health: transactions
	// whose mark ladder was broken, and transactions never folded.
	Incomplete, Open int64
	// Violations holds conservation-law failures observed after the run.
	Violations []string
}

// Breakdown decomposes client-visible commit latency into critical-path
// phases, one row set per durability configuration.
type Breakdown struct {
	Scale Scale
	Rows  []BreakdownRow
}

// Breakdown runs one instrumented hot-stock configuration (2 drivers,
// 64k transactions — the paper's middle cell) per durability mode and
// folds each run's span metrics into a decomposition table.
func (r Runner) Breakdown(seed int64, scale Scale) Breakdown {
	b := Breakdown{Scale: scale, Rows: make([]BreakdownRow, len(breakdownConfigs))}
	r.forEach(len(breakdownConfigs), func(i int) {
		b.Rows[i] = runBreakdownOne(seed, breakdownConfigs[i], scale)
	})
	return b
}

func runBreakdownOne(seed int64, d ods.Durability, scale Scale) BreakdownRow {
	const inserts = 16 // 64k transactions
	reg := metrics.NewRegistry()
	opts := ods.DefaultOptions()
	opts.Seed = seed
	opts.Durability = d
	opts.Metrics = reg
	if d == ods.PMDirectDurability {
		opts.PMRegionBytes = 8 << 20 // the size the committed tables were measured with
	}
	records := (scale.RecordsPerDriver / inserts) * inserts
	if records == 0 {
		records = inserts
	}
	hotstock.Run(opts, hotstock.Params{
		Drivers:          2,
		RecordsPerDriver: records,
		InsertsPerTxn:    inserts,
	})

	cp := reg.Commit
	row := BreakdownRow{
		Durability: d,
		Phases:     cp.PhaseStats(),
		Total:      cp.TotalStat(),
		Incomplete: cp.Incomplete.Value(),
		Open:       int64(cp.Open()),
	}
	var phaseSum sim.Time
	for _, p := range row.Phases {
		phaseSum += p.Sum
	}
	row.TilingError = phaseSum - row.Total.Sum
	for _, err := range reg.CheckConservation() {
		row.Violations = append(row.Violations, err.Error())
	}
	return row
}

// Table renders the decomposition the way EXPERIMENTS.md quotes it.
func (b Breakdown) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Commit-latency decomposition (2 drivers, 64k txns, scale=%s)\n", b.Scale.Name)
	for _, row := range b.Rows {
		fmt.Fprintf(&sb, "\n[%s]\n", row.Durability)
		fmt.Fprintf(&sb, "%-14s %8s %12s %12s %12s %8s\n",
			"phase", "count", "mean_us", "p50_us", "p99_us", "share")
		for _, p := range row.Phases {
			if p.Count == 0 {
				continue
			}
			share := 0.0
			if row.Total.Sum > 0 {
				share = 100 * float64(p.Sum) / float64(row.Total.Sum)
			}
			fmt.Fprintf(&sb, "%-14s %8d %12.1f %12.1f %12.1f %7.1f%%\n",
				p.Name, p.Count, p.Mean.Micros(), p.P50.Micros(), p.P99.Micros(), share)
		}
		t := row.Total
		fmt.Fprintf(&sb, "%-14s %8d %12.1f %12.1f %12.1f %7.1f%%\n",
			"total", t.Count, t.Mean.Micros(), t.P50.Micros(), t.P99.Micros(), 100.0)
		fmt.Fprintf(&sb, "tiling: phase sums - total = %d ticks; incomplete=%d open=%d\n",
			int64(row.TilingError), row.Incomplete, row.Open)
		for _, v := range row.Violations {
			fmt.Fprintf(&sb, "CONSERVATION: %s\n", v)
		}
	}
	return sb.String()
}

// CSV renders the decomposition for plotting.
func (b Breakdown) CSV() string {
	var sb strings.Builder
	sb.WriteString("durability,phase,count,mean_us,p50_us,p99_us,max_us,sum_share\n")
	for _, row := range b.Rows {
		rows := append(append([]metrics.PhaseStat{}, row.Phases...), row.Total)
		rows[len(rows)-1].Name = "total"
		for _, p := range rows {
			if p.Count == 0 {
				continue
			}
			share := 0.0
			if row.Total.Sum > 0 {
				share = float64(p.Sum) / float64(row.Total.Sum)
			}
			fmt.Fprintf(&sb, "%s,%s,%d,%.1f,%.1f,%.1f,%.1f,%.4f\n",
				row.Durability, p.Name, p.Count,
				p.Mean.Micros(), p.P50.Micros(), p.P99.Micros(), p.Max.Micros(), share)
		}
	}
	return sb.String()
}

// CheckShape verifies the decomposition's required properties: the phase
// sums tile the client-visible total exactly, every transaction folded
// cleanly, no conservation law broke, and the durable-write phases
// dominate on disk — outweighing the issue phase, §2's "long pole" — while
// shrinking on PM (the paper's whole point).
func (b Breakdown) CheckShape() []error {
	var errs []error
	share := func(row BreakdownRow, names ...string) float64 {
		var s sim.Time
		for _, p := range row.Phases {
			for _, n := range names {
				if p.Name == n {
					s += p.Sum
				}
			}
		}
		if row.Total.Sum == 0 {
			return 0
		}
		return float64(s) / float64(row.Total.Sum)
	}
	byDur := map[ods.Durability]BreakdownRow{}
	for _, row := range b.Rows {
		byDur[row.Durability] = row
		if row.TilingError != 0 {
			errs = append(errs, fmt.Errorf(
				"breakdown[%s]: phase sums miss total by %d ticks; decomposition must tile exactly",
				row.Durability, int64(row.TilingError)))
		}
		if row.Incomplete != 0 || row.Open != 0 {
			errs = append(errs, fmt.Errorf(
				"breakdown[%s]: incomplete=%d open=%d; every commit must fold",
				row.Durability, row.Incomplete, row.Open))
		}
		for _, v := range row.Violations {
			errs = append(errs, fmt.Errorf("breakdown[%s]: conservation: %s", row.Durability, v))
		}
	}
	// The durable-flush phases (phase 1 + phase 2) dominate the disk
	// config's commit tail and shrink by an order of magnitude on PM.
	diskFlush := share(byDur[ods.DiskDurability], "flush-data", "commit-record")
	pmFlush := share(byDur[ods.PMDurability], "flush-data", "commit-record")
	if diskFlush < 0.5 {
		errs = append(errs, fmt.Errorf(
			"breakdown: disk flush phases carry only %.0f%% of commit latency; expected to dominate", 100*diskFlush))
	}
	if diskIssue := share(byDur[ods.DiskDurability], "issue"); diskIssue >= diskFlush {
		errs = append(errs, fmt.Errorf(
			"breakdown: disk issue phase %.0f%% not below its flush phases' %.0f%%; making the effects durable must be the long pole",
			100*diskIssue, 100*diskFlush))
	}
	if pmFlush >= diskFlush {
		errs = append(errs, fmt.Errorf(
			"breakdown: PM flush share %.0f%% not below disk's %.0f%%", 100*pmFlush, 100*diskFlush))
	}
	return errs
}
