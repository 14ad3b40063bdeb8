package bench

import (
	"fmt"
	"strings"

	"persistmem/internal/cluster"
	"persistmem/internal/disk"
	"persistmem/internal/hotstock"
	"persistmem/internal/npmu"
	"persistmem/internal/ods"
	"persistmem/internal/pmclient"
	"persistmem/internal/pmm"
	"persistmem/internal/sim"
)

// ClaimC1 measures §3.2/§3.3's latency claim: storage-stack I/O costs
// hundreds of microseconds to milliseconds while host-initiated PM access
// costs tens of microseconds, across access sizes.
type ClaimC1 struct {
	Sizes []int
	// DiskWrite, PMWrite (mirrored) and PMRead latencies per size.
	DiskWrite, PMWrite, PMRead []sim.Time
}

// RunClaimC1 measures single-operation latencies on an idle system.
func RunClaimC1(seed int64) ClaimC1 {
	c := ClaimC1{Sizes: []int{64, 512, 4096, 32768, 65536}}

	// Disk: one volume, sequential-ish synchronous writes.
	eng := sim.NewEngine(seed)
	vol := disk.New(eng, "$C1", disk.DefaultConfig(), 1<<30)
	eng.Spawn("disk-probe", func(p *sim.Proc) {
		off := int64(0)
		for _, sz := range c.Sizes {
			start := p.Now()
			vol.Write(p, off, make([]byte, sz))
			c.DiskWrite = append(c.DiskWrite, p.Now()-start)
			off += int64(sz)
		}
	})
	eng.Run()
	eng.Shutdown()

	// PM: mirrored region via the client library.
	eng2 := sim.NewEngine(seed)
	ccfg := cluster.DefaultConfig()
	ccfg.CPUs = 4
	cl := cluster.New(eng2, ccfg)
	a := npmu.New(cl, "npmu-a", 16<<20)
	b := npmu.New(cl, "npmu-b", 16<<20)
	pmm.Start(cl, "$PM1", 0, 1, a, b)
	vol2 := pmclient.Attach(cl, "$PM1")
	cl.CPU(2).Spawn("pm-probe", func(p *cluster.Process) {
		r, err := vol2.OpenOrCreate(p, "probe", 1<<20, nil)
		if err != nil {
			return
		}
		for _, sz := range c.Sizes {
			start := p.Now()
			r.Write(p, 0, make([]byte, sz))
			c.PMWrite = append(c.PMWrite, p.Now()-start)
			start = p.Now()
			r.Read(p, 0, make([]byte, sz))
			c.PMRead = append(c.PMRead, p.Now()-start)
		}
	})
	eng2.Run()
	eng2.Shutdown()
	return c
}

// Table renders the latency comparison.
func (c ClaimC1) Table() string {
	var b strings.Builder
	b.WriteString("Claim C1: storage gap — synchronous write latency by path\n")
	fmt.Fprintf(&b, "%-10s %14s %18s %14s %8s\n", "size", "disk write", "PM write (x2 mir)", "PM read", "gap")
	for i, sz := range c.Sizes {
		gap := float64(c.DiskWrite[i]) / float64(c.PMWrite[i])
		fmt.Fprintf(&b, "%-10d %14v %18v %14v %7.0fx\n",
			sz, c.DiskWrite[i], c.PMWrite[i], c.PMRead[i], gap)
	}
	return b.String()
}

// CheckShape verifies the claim: PM writes in tens of microseconds, disk
// writes in the 100 µs – tens of ms band, for small accesses.
func (c ClaimC1) CheckShape() []error {
	var errs []error
	for i, sz := range c.Sizes {
		if sz > 4096 {
			continue // the prose claim concerns short accesses
		}
		// "10s of microseconds" applies to short transfers; at 4 KB the
		// mirrored write adds two serialization times (~100 µs total).
		if sz <= 1024 && (c.PMWrite[i] < 10*sim.Microsecond || c.PMWrite[i] > 100*sim.Microsecond) {
			errs = append(errs, fmt.Errorf("claimC1: PM write at %dB is %v, want tens of microseconds", sz, c.PMWrite[i]))
		}
		if c.DiskWrite[i] < 100*sim.Microsecond {
			errs = append(errs, fmt.Errorf("claimC1: disk write at %dB is %v, want >= 100us", sz, c.DiskWrite[i]))
		}
		if float64(c.DiskWrite[i])/float64(c.PMWrite[i]) < 10 {
			errs = append(errs, fmt.Errorf("claimC1: storage gap < 10x at %dB", sz))
		}
	}
	return errs
}

// ClaimC3 measures §3.4's write-amplification claim: the chain of
// "repeated, wasteful" persistence/copy actions per inserted row in the
// disk configuration, versus the paper's PM-audit prototype, versus the
// §3.4 end vision where the database writer persists each row exactly
// once (PMDirect).
type ClaimC3 struct {
	Rows int64
	// Per-configuration action and byte counts.
	Disk, PM, PMDirect C3Counts
}

// C3Counts aggregates durability and copy actions for one configuration.
type C3Counts struct {
	DP2CheckpointBytes int64 // database writer primary -> backup
	ADPCheckpointBytes int64 // log writer primary -> backup
	AuditMsgBytes      int64 // database writer -> log writer
	LogDeviceBytes     int64 // log writer -> audit volumes or NPMUs
	DBWPMBytes         int64 // database writer -> NPMUs (PMDirect)
	DataVolumeBytes    int64 // database writer -> data volumes
	Actions            int64 // total count of the above operations
}

// total returns total bytes moved for durability per configuration.
func (c C3Counts) total() int64 {
	return c.DP2CheckpointBytes + c.ADPCheckpointBytes + c.AuditMsgBytes +
		c.LogDeviceBytes + c.DBWPMBytes + c.DataVolumeBytes
}

// ClaimC3 runs the three durability configurations as independent cells
// with the Runner's parallelism. Each cell returns its counts (and the
// row total, identical across cells) rather than writing shared fields.
func (r Runner) ClaimC3(seed int64, scale Scale) ClaimC3 {
	out := ClaimC3{}
	collect := func(d ods.Durability) (C3Counts, int64) {
		opts := ods.DefaultOptions()
		opts.Seed = seed
		opts.Durability = d
		opts.PMRegionBytes = 8 << 20 // the size the committed tables were measured with
		s := ods.Build(opts)
		defer s.Eng.Shutdown()
		params := hotstock.Params{
			Drivers: 1, RecordsPerDriver: (scale.RecordsPerDriver / 8) * 8,
			InsertsPerTxn: 8,
		}
		res := hotstock.RunOn(s, params)
		// Let destaging finish.
		s.Eng.Spawn("drain", func(p *sim.Proc) { p.Wait(2 * sim.Second) })
		s.Eng.Run()
		var c C3Counts
		//simlint:ordered -- commutative sums over per-DP2 counters
		for _, dp := range s.DP2s {
			c.DP2CheckpointBytes += dp.Pair().CheckpointBytes
			c.Actions += dp.Pair().Checkpoints
			st := dp.Stats()
			c.AuditMsgBytes += st.AuditBytes
			c.Actions += st.AuditSends
			c.DataVolumeBytes += st.WrittenBack
			c.Actions += st.Writebacks
			c.DBWPMBytes += 2 * st.PMLogBytes // mirrored
			c.Actions += 2 * st.PMLogWrites
		}
		for _, a := range s.ADPs {
			c.ADPCheckpointBytes += a.Pair().CheckpointBytes
			c.Actions += a.Pair().Checkpoints
			st := a.Stats()
			if d == ods.PMDurability {
				c.LogDeviceBytes += 2 * st.PMBytes // mirrored
				c.Actions += 2 * st.PMWrites
			} else {
				c.LogDeviceBytes += st.FlushBytes
				c.Actions += st.Flushes
			}
		}
		return c, int64(len(res.Drivers)) * int64(params.RecordsPerDriver)
	}
	modes := []ods.Durability{ods.DiskDurability, ods.PMDurability, ods.PMDirectDurability}
	cells := make([]C3Counts, len(modes))
	rows := make([]int64, len(modes))
	r.forEach(len(modes), func(i int) {
		cells[i], rows[i] = collect(modes[i])
	})
	out.Disk, out.PM, out.PMDirect = cells[0], cells[1], cells[2]
	out.Rows = rows[0]
	return out
}

// Table renders per-row byte movement for all three configurations.
func (c ClaimC3) Table() string {
	var b strings.Builder
	b.WriteString("Claim C3: persistence actions per inserted 4KB row (bytes/row)\n")
	fmt.Fprintf(&b, "%-28s %12s %12s %12s\n", "path", "disk", "PM audit", "PM direct")
	row := func(name string, vals ...int64) {
		fmt.Fprintf(&b, "%-28s", name)
		for _, v := range vals {
			fmt.Fprintf(&b, " %12.0f", float64(v)/float64(c.Rows))
		}
		b.WriteByte('\n')
	}
	row("DBW primary->backup ckpt", c.Disk.DP2CheckpointBytes, c.PM.DP2CheckpointBytes, c.PMDirect.DP2CheckpointBytes)
	row("DBW->log writer audit", c.Disk.AuditMsgBytes, c.PM.AuditMsgBytes, c.PMDirect.AuditMsgBytes)
	row("log writer->backup ckpt", c.Disk.ADPCheckpointBytes, c.PM.ADPCheckpointBytes, c.PMDirect.ADPCheckpointBytes)
	row("log writer->device", c.Disk.LogDeviceBytes, c.PM.LogDeviceBytes, c.PMDirect.LogDeviceBytes)
	row("DBW->PM device (x2 mir)", c.Disk.DBWPMBytes, c.PM.DBWPMBytes, c.PMDirect.DBWPMBytes)
	row("DBW->data volumes", c.Disk.DataVolumeBytes, c.PM.DataVolumeBytes, c.PMDirect.DataVolumeBytes)
	row("TOTAL", c.Disk.total(), c.PM.total(), c.PMDirect.total())
	fmt.Fprintf(&b, "%-28s %12.1f %12.1f %12.1f\n", "actions/row",
		float64(c.Disk.Actions)/float64(c.Rows),
		float64(c.PM.Actions)/float64(c.Rows),
		float64(c.PMDirect.Actions)/float64(c.Rows))
	return b.String()
}

// CheckShape verifies that PM removes the log writer's data checkpoint
// (the paper's eliminated hop) and does not inflate total movement.
func (c ClaimC3) CheckShape() []error {
	var errs []error
	if c.PM.ADPCheckpointBytes*4 > c.Disk.ADPCheckpointBytes {
		errs = append(errs, fmt.Errorf(
			"claimC3: log-writer checkpoint bytes not substantially reduced by PM (disk=%d pm=%d)",
			c.Disk.ADPCheckpointBytes, c.PM.ADPCheckpointBytes))
	}
	// PMDirect removes the audit forwarding and log-writer hops entirely
	// and shrinks the DBW checkpoint to counters.
	if c.PMDirect.AuditMsgBytes != 0 || c.PMDirect.LogDeviceBytes != 0 || c.PMDirect.ADPCheckpointBytes != 0 {
		errs = append(errs, fmt.Errorf("claimC3: PMDirect still moves log-writer bytes: %+v", c.PMDirect))
	}
	if c.PMDirect.DP2CheckpointBytes*10 > c.Disk.DP2CheckpointBytes {
		errs = append(errs, fmt.Errorf(
			"claimC3: PMDirect DBW checkpoint not reduced to counters (disk=%d pmdirect=%d)",
			c.Disk.DP2CheckpointBytes, c.PMDirect.DP2CheckpointBytes))
	}
	if c.PMDirect.total() >= c.Disk.total() {
		errs = append(errs, fmt.Errorf("claimC3: PMDirect total (%d) not below disk total (%d)",
			c.PMDirect.total(), c.Disk.total()))
	}
	return errs
}
