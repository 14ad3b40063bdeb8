package bench

import (
	"fmt"
	"strings"

	"persistmem/internal/hotstock"
	"persistmem/internal/ods"
	"persistmem/internal/sim"
)

// AblationA1 measures group commit's contribution in the disk
// configuration: with piggybacking disabled, concurrent drivers each pay
// a full flush and throughput collapses.
type AblationA1 struct {
	Drivers []int
	// ElapsedOn/Off per driver count, 32k transactions.
	ElapsedOn, ElapsedOff []sim.Time
}

// AblationA1 runs the group-commit ablation (3 driver counts × on/off)
// with the Runner's parallelism.
func (r Runner) AblationA1(seed int64, scale Scale) AblationA1 {
	a := AblationA1{Drivers: []int{1, 2, 4}}
	a.ElapsedOn = make([]sim.Time, len(a.Drivers))
	a.ElapsedOff = make([]sim.Time, len(a.Drivers))
	r.forEach(len(a.Drivers)*2, func(i int) {
		di, off := i/2, i%2 == 1
		params := hotstock.Params{
			Drivers: a.Drivers[di], RecordsPerDriver: (scale.RecordsPerDriver / 8) * 8,
			InsertsPerTxn: 8,
		}
		opts := ods.DefaultOptions()
		opts.Seed = seed
		opts.NoGroupCommit = off
		elapsed := hotstock.Run(opts, params).Elapsed
		if off {
			a.ElapsedOff[di] = elapsed
		} else {
			a.ElapsedOn[di] = elapsed
		}
	})
	return a
}

// Table renders the ablation.
func (a AblationA1) Table() string {
	var b strings.Builder
	b.WriteString("Ablation A1: group commit in the disk log writer (32k txns)\n")
	fmt.Fprintf(&b, "%-10s %14s %14s %10s\n", "drivers", "grouped", "per-commit", "penalty")
	for i, d := range a.Drivers {
		fmt.Fprintf(&b, "%-10d %13.2fs %13.2fs %9.2fx\n", d,
			a.ElapsedOn[i].Seconds(), a.ElapsedOff[i].Seconds(),
			float64(a.ElapsedOff[i])/float64(a.ElapsedOn[i]))
	}
	return b.String()
}

// CheckShape: disabling group commit must not help, and must hurt with
// concurrency.
func (a AblationA1) CheckShape() []error {
	var errs []error
	last := len(a.Drivers) - 1
	if a.ElapsedOff[last] <= a.ElapsedOn[last] {
		errs = append(errs, fmt.Errorf(
			"ablationA1: disabling group commit did not hurt at %d drivers", a.Drivers[last]))
	}
	return errs
}

// AblationA2 measures the cost of NPMU mirroring: response time with a
// mirrored pair versus a single device.
type AblationA2 struct {
	MirroredResp, SingleResp sim.Time
}

// AblationA2 runs the mirroring ablation (1 driver, 32k transactions,
// mirrored vs single device) with the Runner's parallelism.
func (r Runner) AblationA2(seed int64, scale Scale) AblationA2 {
	params := hotstock.Params{
		Drivers: 1, RecordsPerDriver: (scale.RecordsPerDriver / 8) * 8,
		InsertsPerTxn: 8,
	}
	var cells [2]sim.Time
	r.forEach(len(cells), func(i int) {
		opts := ods.DefaultOptions()
		opts.Seed = seed
		opts.Durability = ods.PMDurability
		opts.MirrorPM = i == 0
		cells[i] = hotstock.Run(opts, params).MeanResp()
	})
	return AblationA2{MirroredResp: cells[0], SingleResp: cells[1]}
}

// Table renders the ablation.
func (a AblationA2) Table() string {
	var b strings.Builder
	b.WriteString("Ablation A2: NPMU mirroring cost (PM mode, 1 driver, 32k txns)\n")
	fmt.Fprintf(&b, "mirrored pair: %v mean resp\n", a.MirroredResp)
	fmt.Fprintf(&b, "single device: %v mean resp\n", a.SingleResp)
	fmt.Fprintf(&b, "mirroring overhead: %.1f%%\n",
		100*(float64(a.MirroredResp)/float64(a.SingleResp)-1))
	return b.String()
}

// CheckShape: mirroring costs something but stays modest (fault tolerance
// is cheap with memory-speed devices).
func (a AblationA2) CheckShape() []error {
	var errs []error
	if a.MirroredResp < a.SingleResp {
		errs = append(errs, fmt.Errorf("ablationA2: mirrored (%v) faster than single (%v)", a.MirroredResp, a.SingleResp))
	}
	if float64(a.MirroredResp) > 1.5*float64(a.SingleResp) {
		errs = append(errs, fmt.Errorf("ablationA2: mirroring overhead over 50%% (%v vs %v)", a.MirroredResp, a.SingleResp))
	}
	return errs
}

// AblationA4 compares all three durability architectures on the same
// hot-stock load: disk audit, the paper's PM-audit prototype, and §3.4's
// persist-once-at-the-database-writer vision (PMDirect).
type AblationA4 struct {
	// Resp and Elapsed per mode: disk, PM, PMDirect.
	Resp    [3]sim.Time
	Elapsed [3]sim.Time
}

// AblationA4 runs the architecture comparison (1 driver, 32k txns, three
// durability modes) with the Runner's parallelism.
func (r Runner) AblationA4(seed int64, scale Scale) AblationA4 {
	params := hotstock.Params{
		Drivers: 1, RecordsPerDriver: (scale.RecordsPerDriver / 8) * 8,
		InsertsPerTxn: 8,
	}
	modes := []ods.Durability{ods.DiskDurability, ods.PMDurability, ods.PMDirectDurability}
	var a AblationA4
	r.forEach(len(modes), func(i int) {
		opts := ods.DefaultOptions()
		opts.Seed = seed
		opts.Durability = modes[i]
		opts.PMRegionBytes = 8 << 20 // the size the committed tables were measured with
		res := hotstock.Run(opts, params)
		a.Resp[i] = res.MeanResp()
		a.Elapsed[i] = res.Elapsed
	})
	return a
}

// Table renders the ablation.
func (a AblationA4) Table() string {
	var b strings.Builder
	b.WriteString("Ablation A4: durability architecture (1 driver, 32k txns)\n")
	fmt.Fprintf(&b, "%-26s %14s %14s\n", "architecture", "mean resp", "elapsed")
	names := []string{"disk audit (baseline)", "PM audit (paper §4.2)", "PM direct (vision §3.4)"}
	for i, n := range names {
		fmt.Fprintf(&b, "%-26s %14v %13.2fs\n", n, a.Resp[i], a.Elapsed[i].Seconds())
	}
	return b.String()
}

// CheckShape: each step of the paper's progression must pay off.
func (a AblationA4) CheckShape() []error {
	var errs []error
	if a.Resp[1] >= a.Resp[0] {
		errs = append(errs, fmt.Errorf("ablationA4: PM audit (%v) not faster than disk (%v)", a.Resp[1], a.Resp[0]))
	}
	if a.Resp[2] >= a.Resp[1] {
		errs = append(errs, fmt.Errorf("ablationA4: PMDirect (%v) not faster than PM audit (%v)", a.Resp[2], a.Resp[1]))
	}
	return errs
}

// AblationA3 measures sensitivity to the fabric's software latency — the
// paper's "10 to 20 microseconds, depending on the generation of
// ServerNet technology".
type AblationA3 struct {
	Latencies []sim.Time
	PMResp    []sim.Time
}

// AblationA3 sweeps the ServerNet software latency (3 cells) with the
// Runner's parallelism.
func (r Runner) AblationA3(seed int64, scale Scale) AblationA3 {
	a := AblationA3{Latencies: []sim.Time{10 * sim.Microsecond, 15 * sim.Microsecond, 20 * sim.Microsecond}}
	params := hotstock.Params{
		Drivers: 1, RecordsPerDriver: (scale.RecordsPerDriver / 8) * 8,
		InsertsPerTxn: 8,
	}
	a.PMResp = make([]sim.Time, len(a.Latencies))
	r.forEach(len(a.Latencies), func(i int) {
		opts := ods.DefaultOptions()
		opts.Seed = seed
		opts.Durability = ods.PMDurability
		opts.Net.SoftwareLatency = a.Latencies[i]
		a.PMResp[i] = hotstock.Run(opts, params).MeanResp()
	})
	return a
}

// Table renders the ablation.
func (a AblationA3) Table() string {
	var b strings.Builder
	b.WriteString("Ablation A3: ServerNet generation (software latency) sensitivity, PM mode\n")
	fmt.Fprintf(&b, "%-14s %14s\n", "sw latency", "mean resp")
	for i, lat := range a.Latencies {
		fmt.Fprintf(&b, "%-14v %14v\n", lat, a.PMResp[i])
	}
	return b.String()
}

// CheckShape: response time rises monotonically with fabric latency.
func (a AblationA3) CheckShape() []error {
	var errs []error
	for i := 1; i < len(a.PMResp); i++ {
		if a.PMResp[i] < a.PMResp[i-1] {
			errs = append(errs, fmt.Errorf(
				"ablationA3: response time fell (%v -> %v) as latency rose", a.PMResp[i-1], a.PMResp[i]))
		}
	}
	return errs
}
