// Saturation sweep: open-loop throughput-vs-p99 curves per durability
// config, shard-count scaling under skewed overload, and data-volume
// scaling — an extension of the paper's closed-loop 4-CPU testbed to a
// partitioned store driven past its knee.
//
// Every cell builds a private store and drives it with the open-loop
// harness (loadgen.RunOpen) at a configured offered load; results
// land in index-addressed slots, so the assembled CSV and tables are
// byte-identical at any parallelism — the same contract the figure
// sweeps carry.
package bench

import (
	"fmt"
	"strings"

	"persistmem/internal/loadgen"
	"persistmem/internal/ods"
	"persistmem/internal/sim"
)

// SatScale sizes the saturation sweep: only the arrival window varies
// across scales, so every scale runs the same grid of cells and the
// summary tables keep an identical skeleton (the staleness gate relies
// on that, exactly like the figure tables).
type SatScale struct {
	Name   string
	Window sim.Time
}

// Predefined saturation scales.
var (
	SatFull  = SatScale{Name: "full", Window: 2 * sim.Second}
	SatQuick = SatScale{Name: "quick", Window: sim.Second}
	SatSmoke = SatScale{Name: "smoke", Window: 500 * sim.Millisecond}
)

// ParseSatScale resolves a -scale flag value.
func ParseSatScale(s string) (SatScale, error) {
	switch s {
	case "full":
		return SatFull, nil
	case "quick":
		return SatQuick, nil
	case "smoke":
		return SatSmoke, nil
	}
	return SatScale{}, fmt.Errorf("unknown scale %q (want full, quick or smoke)", s)
}

// satNominal is the measured open-loop capacity of the knee sweep's
// 4-shard, 4-volume topology per durability config (committed txns per
// virtual second, measured at 3x overload). The knee sweep offers
// multiples of it so the saturation point sits at the same grid position
// for every durability.
var satNominal = map[ods.Durability]float64{
	ods.DiskDurability:     950,
	ods.PMDurability:       2550,
	ods.PMDirectDurability: 2950,
}

// satKneeDurabilities orders the knee sweep's series.
var satKneeDurabilities = []ods.Durability{
	ods.DiskDurability, ods.PMDurability, ods.PMDirectDurability,
}

// satMultipliers are the knee sweep's offered-load multiples of the
// nominal capacity: three cells below the knee, one at it, three past it.
var satMultipliers = []float64{0.3, 0.6, 0.9, 1.2, 1.6, 2.2, 3.0}

// satShardCounts is the shard-scaling sweep's x-axis (DP2 partitions of
// the driven file), run at a fixed heavy offered load.
var satShardCounts = []int{1, 2, 4, 8, 16}

// satShardRate is the shard sweep's fixed offered load — far past a
// single shard's capacity, so delivered throughput tracks how far the
// partition count scales it.
const satShardRate = 6000

// satVolumeCounts is the volume-scaling sweep's x-axis (data disk
// volumes under a 16-shard disk-durability store).
var satVolumeCounts = []int{1, 2, 4, 64}

// satVolumeRate is the volume sweep's fixed offered load.
const satVolumeRate = 3000

// satXShardPcts is the cross-shard sweep's x-axis: the percentage of
// write transactions committed under the TMF's two-phase outcome-record
// protocol, spread over every shard.
var satXShardPcts = []float64{0, 25, 50, 100}

// satXShardRate is the cross-shard sweep's fixed offered load — below
// the 4-shard PM knee, so the cost axis measures protocol overhead, not
// queueing.
const satXShardRate = 2000

// satStreamCounts is the audit-stream sweep's x-axis: independent ADP
// log-writer pairs under the volume sweep's largest (64-volume, 16-
// shard) disk topology. 4 is the historical one-per-CPU deployment.
var satStreamCounts = []int{4, 8, 16}

// satCell is one saturation sweep cell.
type satCell struct {
	sweep    string // "knee", "shards", "volumes", "xshardN" or "streamsN"
	seed     int64
	d        ods.Durability
	shards   int
	volumes  int
	rate     float64
	window   sim.Time
	crossPct float64 // cross-shard two-phase mix, percent
	streams  int     // ADP audit streams; 0 = one per CPU
}

func (c satCell) opts() ods.Options {
	opts := ods.DefaultOptions()
	opts.Seed = c.seed
	opts.Durability = c.d
	opts.Files = []ods.FileSpec{{Name: "TRADES", Partitions: c.shards}}
	opts.DataVolumes = c.volumes
	opts.AuditStreams = c.streams
	opts.PMRegionBytes = 8 << 20 // the size the committed sweep was measured with
	return opts
}

func (c satCell) cfg() loadgen.OpenConfig {
	cfg := loadgen.DefaultOpenConfig()
	cfg.File = "TRADES"
	cfg.Rate = c.rate
	cfg.Window = c.window
	cfg.CrossShardPct = c.crossPct
	return cfg
}

// SatPoint is one cell's distilled outcome.
type SatPoint struct {
	Sweep      string
	Durability ods.Durability
	Shards     int
	Volumes    int
	Rate       float64 // configured offered load

	Offered   float64 // measured offered load
	Delivered float64 // committed txns per elapsed second

	SojournP50 sim.Time
	SojournP99 sim.Time
	ServiceP99 sim.Time
	MaxDepth   int

	Arrivals int64
	Commits  int64
	Aborts   int64
	Errors   int64
	Drops    int64

	// HotShardShare is the hottest shard's fraction of all arrivals —
	// the Zipf skew made visible (1/Shards means perfectly even).
	HotShardShare float64

	// CrossCommits counts committed cross-shard two-phase transactions
	// (a subset of Commits; zero unless the cell mixes them in).
	CrossCommits int64
}

func satPoint(c satCell, r loadgen.OpenResult) SatPoint {
	p := SatPoint{
		Sweep: c.sweep, Durability: c.d, Shards: c.shards, Volumes: c.volumes,
		Rate: c.rate, Offered: r.Offered(), Delivered: r.Delivered(),
		SojournP50: r.Sojourn.Percentile(50), SojournP99: r.Sojourn.Percentile(99),
		ServiceP99: r.Service.Percentile(99),
		Arrivals:   r.Arrivals, Commits: r.Commits, Aborts: r.Aborts,
		Errors: r.Errors, Drops: r.Drops, CrossCommits: r.CrossCommits,
	}
	var hot int64
	for _, sh := range r.Shards {
		if sh.Arrivals > hot {
			hot = sh.Arrivals
		}
		if sh.MaxDepth > p.MaxDepth {
			p.MaxDepth = sh.MaxDepth
		}
	}
	if r.Arrivals > 0 {
		p.HotShardShare = float64(hot) / float64(r.Arrivals)
	}
	return p
}

// Saturation is the assembled sweep: the knee grid in durability-major
// order, then the shard, volume, cross-shard-mix and audit-stream
// cells.
type Saturation struct {
	Scale   SatScale
	Knee    [][]SatPoint // [durability][multiplier]
	Shards  []SatPoint
	Vols    []SatPoint
	XShard  []SatPoint // cross-shard two-phase mix axis
	Streams []SatPoint // ADP audit-stream axis
}

// Saturation executes the sweep's independent cells with the Runner's
// parallelism.
func (r Runner) Saturation(seed int64, scale SatScale) Saturation {
	var cells []satCell
	for _, d := range satKneeDurabilities {
		for _, m := range satMultipliers {
			cells = append(cells, satCell{sweep: "knee", seed: seed, d: d,
				shards: 4, volumes: 4, rate: satNominal[d] * m, window: scale.Window})
		}
	}
	for _, sh := range satShardCounts {
		cells = append(cells, satCell{sweep: "shards", seed: seed, d: ods.PMDurability,
			shards: sh, volumes: 4, rate: satShardRate, window: scale.Window})
	}
	for _, v := range satVolumeCounts {
		cells = append(cells, satCell{sweep: "volumes", seed: seed, d: ods.DiskDurability,
			shards: 16, volumes: v, rate: satVolumeRate, window: scale.Window})
	}
	for _, pct := range satXShardPcts {
		cells = append(cells, satCell{sweep: fmt.Sprintf("xshard%g", pct), seed: seed,
			d: ods.PMDurability, shards: 4, volumes: 4, rate: satXShardRate,
			window: scale.Window, crossPct: pct})
	}
	for _, n := range satStreamCounts {
		cells = append(cells, satCell{sweep: fmt.Sprintf("streams%d", n), seed: seed,
			d: ods.DiskDurability, shards: 16, volumes: 64, rate: satVolumeRate,
			window: scale.Window, streams: n})
	}
	// A Runner-level mix (the -cross-shard-pct flag) applies to every
	// standard cell; the xshard sweep keeps its own fixed axis.
	if r.CrossShardPct > 0 {
		for i := range cells {
			if !strings.HasPrefix(cells[i].sweep, "xshard") {
				cells[i].crossPct = r.CrossShardPct
			}
		}
	}

	results := make([]loadgen.OpenResult, len(cells))
	r.forEach(len(cells), func(i int) {
		s := ods.Build(cells[i].opts())
		results[i] = loadgen.RunOpen(s, cells[i].cfg())
		s.Eng.Shutdown()
	})

	sat := Saturation{Scale: scale}
	i := 0
	for range satKneeDurabilities {
		row := make([]SatPoint, len(satMultipliers))
		for mi := range satMultipliers {
			row[mi] = satPoint(cells[i], results[i])
			i++
		}
		sat.Knee = append(sat.Knee, row)
	}
	for range satShardCounts {
		sat.Shards = append(sat.Shards, satPoint(cells[i], results[i]))
		i++
	}
	for range satVolumeCounts {
		sat.Vols = append(sat.Vols, satPoint(cells[i], results[i]))
		i++
	}
	for range satXShardPcts {
		sat.XShard = append(sat.XShard, satPoint(cells[i], results[i]))
		i++
	}
	for range satStreamCounts {
		sat.Streams = append(sat.Streams, satPoint(cells[i], results[i]))
		i++
	}
	return sat
}

// points returns every cell in CSV order.
func (s Saturation) points() []SatPoint {
	var out []SatPoint
	for _, row := range s.Knee {
		out = append(out, row...)
	}
	out = append(out, s.Shards...)
	out = append(out, s.Vols...)
	out = append(out, s.XShard...)
	out = append(out, s.Streams...)
	return out
}

// CSV renders every cell for plotting, one row per cell.
func (s Saturation) CSV() string {
	var b strings.Builder
	b.WriteString("sweep,durability,shards,volumes,rate,offered,delivered," +
		"sojourn_p50_ms,sojourn_p99_ms,service_p99_ms,max_depth," +
		"arrivals,commits,aborts,errors,drops,hot_shard_share\n")
	for _, p := range s.points() {
		fmt.Fprintf(&b, "%s,%s,%d,%d,%.0f,%.1f,%.1f,%.3f,%.3f,%.3f,%d,%d,%d,%d,%d,%d,%.3f\n",
			p.Sweep, p.Durability, p.Shards, p.Volumes, p.Rate,
			p.Offered, p.Delivered,
			p.SojournP50.Millis(), p.SojournP99.Millis(), p.ServiceP99.Millis(),
			p.MaxDepth, p.Arrivals, p.Commits, p.Aborts, p.Errors, p.Drops,
			p.HotShardShare)
	}
	return b.String()
}

// Table renders the three golden summary tables.
func (s Saturation) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Saturation knee: offered load vs delivered throughput and sojourn p99 (scale=%s)\n", s.Scale.Name)
	fmt.Fprintf(&b, "%-8s", "load")
	for _, d := range satKneeDurabilities {
		fmt.Fprintf(&b, " %12s %14s", d.String()+"/s", d.String()+" p99")
	}
	b.WriteByte('\n')
	for mi, m := range satMultipliers {
		fmt.Fprintf(&b, "%-8s", fmt.Sprintf("%.1fx", m))
		for di := range satKneeDurabilities {
			p := s.Knee[di][mi]
			fmt.Fprintf(&b, " %12.1f %14v", p.Delivered, p.SojournP99)
		}
		b.WriteByte('\n')
	}

	fmt.Fprintf(&b, "\nShard scaling: pm durability at %d/s offered (scale=%s)\n", satShardRate, s.Scale.Name)
	fmt.Fprintf(&b, "%-8s %12s %14s %10s\n", "shards", "delivered/s", "sojourn p99", "hot share")
	for _, p := range s.Shards {
		fmt.Fprintf(&b, "%-8d %12.1f %14v %9.1f%%\n", p.Shards, p.Delivered, p.SojournP99, 100*p.HotShardShare)
	}

	fmt.Fprintf(&b, "\nVolume scaling: disk durability, 16 shards at %d/s offered (scale=%s)\n", satVolumeRate, s.Scale.Name)
	fmt.Fprintf(&b, "%-8s %12s %14s\n", "volumes", "delivered/s", "sojourn p99")
	for _, p := range s.Vols {
		fmt.Fprintf(&b, "%-8d %12.1f %14v\n", p.Volumes, p.Delivered, p.SojournP99)
	}

	fmt.Fprintf(&b, "\nCross-shard mix: pm durability, 4 shards at %d/s offered (scale=%s)\n", satXShardRate, s.Scale.Name)
	fmt.Fprintf(&b, "%-8s %12s %14s %12s\n", "mix", "delivered/s", "sojourn p99", "xs-commits")
	for i, p := range s.XShard {
		fmt.Fprintf(&b, "%-8s %12.1f %14v %12d\n",
			fmt.Sprintf("%g%%", satXShardPcts[i]), p.Delivered, p.SojournP99, p.CrossCommits)
	}

	fmt.Fprintf(&b, "\nAudit-stream scaling: disk durability, 16 shards, 64 volumes at %d/s offered (scale=%s)\n", satVolumeRate, s.Scale.Name)
	fmt.Fprintf(&b, "%-8s %12s %14s\n", "streams", "delivered/s", "sojourn p99")
	for i, p := range s.Streams {
		fmt.Fprintf(&b, "%-8d %12.1f %14v\n", satStreamCounts[i], p.Delivered, p.SojournP99)
	}
	return b.String()
}

// kneeIndex returns the first multiplier index where delivered falls
// clearly below offered (the saturation point), or -1 if the series
// never saturates.
func kneeIndex(row []SatPoint) int {
	for i, p := range row {
		if p.Delivered < 0.9*p.Offered {
			return i
		}
	}
	return -1
}

// CheckShape verifies the properties the sweep must exhibit:
//
//   - every knee series saturates within the grid, keeps delivering at
//     least its pre-knee throughput (the backlog drains at capacity, it
//     does not collapse), and its sojourn p99 increases strictly from
//     the saturation point on;
//   - PM's capacity clearly exceeds disk's;
//   - delivered throughput scales monotonically with shard count and
//     data volumes, and the Zipf hot shard is visible at high counts.
func (s Saturation) CheckShape() []error {
	var errs []error
	for di, d := range satKneeDurabilities {
		row := s.Knee[di]
		k := kneeIndex(row)
		if k < 0 {
			errs = append(errs, fmt.Errorf("saturation: %v never saturates within %gx nominal", d, satMultipliers[len(satMultipliers)-1]))
			continue
		}
		if k == 0 {
			errs = append(errs, fmt.Errorf("saturation: %v already saturated at %gx nominal", d, satMultipliers[0]))
			continue
		}
		for i := k; i+1 < len(row); i++ {
			if row[i+1].SojournP99 <= row[i].SojournP99 {
				errs = append(errs, fmt.Errorf(
					"saturation: %v sojourn p99 not strictly increasing past the knee (%v at %gx, %v at %gx)",
					d, row[i].SojournP99, satMultipliers[i], row[i+1].SojournP99, satMultipliers[i+1]))
			}
		}
		for i := k; i < len(row); i++ {
			if row[i].Delivered < row[k-1].Delivered*0.9 {
				errs = append(errs, fmt.Errorf(
					"saturation: %v delivered collapsed past the knee (%.1f/s at %gx vs %.1f/s before)",
					d, row[i].Delivered, satMultipliers[i], row[k-1].Delivered))
			}
		}
	}
	// PM beats disk at every offered multiple at or past the knee.
	diskRow, pmRow := s.Knee[0], s.Knee[1]
	if pmRow[len(pmRow)-1].Delivered <= diskRow[len(diskRow)-1].Delivered {
		errs = append(errs, fmt.Errorf("saturation: PM capacity (%.1f/s) not above disk (%.1f/s)",
			pmRow[len(pmRow)-1].Delivered, diskRow[len(diskRow)-1].Delivered))
	}
	for i := 1; i < len(s.Shards); i++ {
		if s.Shards[i].Delivered < s.Shards[i-1].Delivered*0.98 {
			errs = append(errs, fmt.Errorf("saturation: delivered fell from %d to %d shards (%.1f -> %.1f/s)",
				s.Shards[i-1].Shards, s.Shards[i].Shards, s.Shards[i-1].Delivered, s.Shards[i].Delivered))
		}
	}
	if first, last := s.Shards[0], s.Shards[len(s.Shards)-1]; last.Delivered < 1.5*first.Delivered {
		errs = append(errs, fmt.Errorf("saturation: %d shards deliver only %.2fx of 1 shard",
			last.Shards, last.Delivered/first.Delivered))
	}
	// The Zipf hot shard: at 16 shards the hottest takes far more than
	// an even 1/16 share.
	if p := s.Shards[len(s.Shards)-1]; p.HotShardShare < 2.0/float64(p.Shards) {
		errs = append(errs, fmt.Errorf("saturation: hot shard share %.3f not above 2/%d — skew invisible",
			p.HotShardShare, p.Shards))
	}
	for i := 1; i < len(s.Vols); i++ {
		if s.Vols[i].Delivered < s.Vols[i-1].Delivered*0.98 {
			errs = append(errs, fmt.Errorf("saturation: delivered fell from %d to %d volumes (%.1f -> %.1f/s)",
				s.Vols[i-1].Volumes, s.Vols[i].Volumes, s.Vols[i-1].Delivered, s.Vols[i].Delivered))
		}
	}
	if s.Vols[len(s.Vols)-1].Delivered <= s.Vols[0].Delivered {
		errs = append(errs, fmt.Errorf("saturation: %d volumes (%.1f/s) no faster than 1 (%.1f/s)",
			s.Vols[len(s.Vols)-1].Volumes, s.Vols[len(s.Vols)-1].Delivered, s.Vols[0].Delivered))
	}
	// The cross-shard mix actually materializes: no two-phase commits at
	// 0%, a share tracking the axis above it, and the store keeps
	// delivering (the protocol costs latency, not correctness).
	for i, p := range s.XShard {
		pct := satXShardPcts[i]
		switch {
		case pct == 0 && p.CrossCommits != 0:
			errs = append(errs, fmt.Errorf("saturation: xshard mix 0%% recorded %d two-phase commits", p.CrossCommits))
		case pct > 0 && p.CrossCommits == 0:
			errs = append(errs, fmt.Errorf("saturation: xshard mix %g%% recorded no two-phase commits", pct))
		}
		if p.Commits == 0 {
			errs = append(errs, fmt.Errorf("saturation: xshard mix %g%% delivered nothing", pct))
		}
		if i > 0 && p.CrossCommits < s.XShard[i-1].CrossCommits {
			errs = append(errs, fmt.Errorf("saturation: xshard two-phase commits fell from mix %g%% to %g%% (%d -> %d)",
				satXShardPcts[i-1], pct, s.XShard[i-1].CrossCommits, p.CrossCommits))
		}
	}
	// More audit streams must not cost throughput on the 64-volume
	// topology, and the widest spread must beat the one-per-CPU deployment.
	for i := 1; i < len(s.Streams); i++ {
		if s.Streams[i].Delivered < s.Streams[i-1].Delivered*0.98 {
			errs = append(errs, fmt.Errorf("saturation: delivered fell from %d to %d audit streams (%.1f -> %.1f/s)",
				satStreamCounts[i-1], satStreamCounts[i], s.Streams[i-1].Delivered, s.Streams[i].Delivered))
		}
	}
	if len(s.Streams) > 0 {
		if first, last := s.Streams[0], s.Streams[len(s.Streams)-1]; last.Delivered <= first.Delivered {
			errs = append(errs, fmt.Errorf("saturation: %d audit streams (%.1f/s) no faster than %d (%.1f/s)",
				satStreamCounts[len(satStreamCounts)-1], last.Delivered, satStreamCounts[0], first.Delivered))
		}
	}
	return errs
}
