package main

// adapter.go is the only file of the benchmark that imports the program.
// Everything else works on the plain numbers in rep.go, so a change to a
// program package's API is repaired here and nowhere else. Each layer is
// measured from outside, through public functions and public counters.
//
// Deliberately not imported: bench (its engine selection and sweep pool),
// sim/parallel, directpm, trace, hotstock (its Result has no median) and
// ods.Options.NodeLPs — the benchmark runs one cell at a time on the
// single-engine build.

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"persistmem/internal/audit"
	"persistmem/internal/btree"
	"persistmem/internal/cluster"
	"persistmem/internal/disk"
	"persistmem/internal/faultinject"
	"persistmem/internal/loadgen"
	"persistmem/internal/locks"
	"persistmem/internal/metrics"
	"persistmem/internal/npmu"
	"persistmem/internal/ods"
	"persistmem/internal/pmclient"
	"persistmem/internal/pmm"
	"persistmem/internal/recovery"
	"persistmem/internal/servernet"
	"persistmem/internal/sim"
	"persistmem/internal/tmf"
)

// commitPhases names the commit path's phases in path order.
var commitPhases = metrics.PhaseNames[:]

// ratio is num/den, 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func durabilityOf(mode string) ods.Durability {
	if mode == "pm" {
		return ods.PMDurability
	}
	return ods.DiskDurability
}

// ---------------------------------------------------------------------
// Span-registry aggregation (traced reps, and every fault-matrix cell).

// regSums adds up the span registries of a rep's cells. Means are taken
// as sum over count across all cells, so the commit phases tile the mean
// response exactly however many cells contributed.
type regSums struct {
	phase      [metrics.NumPhases]sim.Time
	total      sim.Time
	totalN     int64
	dp2Insert  meanAcc
	dp2Ckpt    meanAcc
	dp2Audit   meanAcc
	boxcar     meanAcc
	flushDisk  meanAcc
	flushed    int64
	auditQueue meanAcc
	dataQueue  meanAcc
	auditBusy  float64 // virtual ns with an audit arm busy
	dataBusy   float64
	virtNs     float64
	netXfer    meanAcc
	netOps     int64
	netBytes   int64
	pmWrite    meanAcc
	pmWrites   int64
	lockWaits  int64
	lockP99    sim.Time // worst cell
}

type meanAcc struct {
	sum sim.Time
	n   int64
}

func (m *meanAcc) add(h *metrics.LatencyHist) { m.sum += h.Sum(); m.n += h.Count() }
func (m meanAcc) meanUs() float64             { return ratio(m.sum.Micros(), float64(m.n)) }

// add folds one cell's registry in, as of virtual time now, and holds it
// to its laws: every conservation check, and the commit phases tiling
// the total to the tick.
func (a *regSums) add(out *repOut, cell string, reg *metrics.Registry, now sim.Time) {
	for _, err := range reg.CheckConservation() {
		out.fail("%s: conservation: %v", cell, err)
	}
	var phaseSum sim.Time
	for i, st := range reg.Commit.PhaseStats() {
		a.phase[i] += st.Sum
		phaseSum += st.Sum
	}
	tot := reg.Commit.TotalStat()
	if phaseSum != tot.Sum {
		out.fail("%s: commit phases sum to %d ticks, total is %d", cell, phaseSum, tot.Sum)
	}
	if n := reg.Commit.Incomplete.Value(); n != 0 {
		out.fail("%s: %d commits with missing or unordered marks", cell, n)
	}
	a.total += tot.Sum
	a.totalN += tot.Count
	a.dp2Insert.add(reg.DP2.Insert)
	a.dp2Ckpt.add(reg.DP2.Checkpoint)
	a.dp2Audit.add(reg.DP2.AuditSend)
	a.boxcar.add(reg.ADP.BoxcarWait)
	a.flushDisk.add(reg.ADP.FlushDisk)
	a.flushed += reg.ADP.Flushed.Value()
	a.auditQueue.add(reg.AuditDisk.Queue)
	a.dataQueue.add(reg.DataDisk.Queue)
	a.auditBusy += reg.AuditDisk.Arm.Busy(now) * float64(now)
	a.dataBusy += reg.DataDisk.Arm.Busy(now) * float64(now)
	a.virtNs += float64(now)
	a.netXfer.add(reg.Net.Transfer)
	a.netOps += reg.Net.Ops.Value()
	a.netBytes += reg.Net.Bytes.Value()
	a.pmWrite.add(reg.PM.Write)
	a.pmWrites += reg.PM.Writes.Value()
	a.lockWaits += reg.Locks.Enters.Value()
	if p := reg.Locks.Wait.Percentile(99); p > a.lockP99 {
		a.lockP99 = p
	}
}

// report writes the per-layer metrics the registries yield.
func (a *regSums) report(out *repOut) {
	l := out.layer
	txns := float64(out.committed)
	for i, name := range metrics.PhaseNames {
		l["tmf.virt_phase_us."+name] = ratio(a.phase[i].Micros(), float64(a.totalN))
	}
	l["dp2.virt_insert_us"] = a.dp2Insert.meanUs()
	l["dp2.virt_checkpoint_us"] = a.dp2Ckpt.meanUs()
	l["dp2.virt_audit_send_us"] = a.dp2Audit.meanUs()
	l["dp2.audit_sends_per_txn"] = ratio(float64(a.dp2Audit.n), txns)
	l["adp.virt_boxcar_wait_us"] = a.boxcar.meanUs()
	l["adp.virt_flush_disk_us"] = a.flushDisk.meanUs()
	l["adp.waiters_per_flush"] = ratio(float64(a.flushed), float64(a.flushDisk.n))
	l["disk.audit.virt_queue_us"] = a.auditQueue.meanUs()
	l["disk.audit.util_pct"] = 100 * ratio(a.auditBusy, a.virtNs)
	l["disk.data.virt_queue_us"] = a.dataQueue.meanUs()
	l["disk.data.util_pct"] = 100 * ratio(a.dataBusy, a.virtNs)
	l["servernet.ops_per_txn"] = ratio(float64(a.netOps), txns)
	l["servernet.bytes_per_txn"] = ratio(float64(a.netBytes), txns)
	l["servernet.virt_transfer_us"] = a.netXfer.meanUs()
	l["pmclient.writes_per_txn"] = ratio(float64(a.pmWrites), txns)
	l["pmclient.virt_write_us"] = a.pmWrite.meanUs()
	l["locks.virt_wait_us_p99"] = a.lockP99.Micros()
	l["locks.waits_per_txn"] = ratio(float64(a.lockWaits), txns)
}

// ---------------------------------------------------------------------
// Workloads 1 and 2: hot-stock, closed loop.

const (
	hotDrivers     = 2    // the paper's "common 1-2 hot-stock case"
	hotInserts     = 8    // per transaction: the "32k" point
	hotRecordBytes = 4096 //
)

// hotDriver is one driver's exact record.
type hotDriver struct {
	resp   []sim.Time
	errs   int
	doneAt sim.Time
}

// startHotDrivers is the benchmark's own copy of hotstock.Start's loop
// on the public session API, kept because hotstock.Result exposes no
// median: this copy records every response. The seed-1 artifact check
// proves it has not drifted from the original.
func startHotDrivers(s *ods.Store, drivers, records, inserts int) []*hotDriver {
	files := make([]string, len(s.Opts.Files))
	for i, f := range s.Opts.Files {
		files[i] = f.Name
	}
	perFile := inserts / len(files)
	txns := records / inserts
	out := make([]*hotDriver, drivers)
	for d := range out {
		d := d
		drv := &hotDriver{resp: make([]sim.Time, 0, txns)}
		out[d] = drv
		s.Cl.CPU(d%s.Opts.CPUs).Spawn(fmt.Sprintf("driver%d", d), func(p *cluster.Process) {
			se := s.NewSession(p)
			nextKey := uint64(d)<<40 | 1
			body := make([]byte, hotRecordBytes)
			for t := 0; t < txns; t++ {
				start := p.Now()
				txn, err := se.Begin()
				if err != nil {
					drv.errs++
					continue
				}
				for _, f := range files {
					for i := 0; i < perFile; i++ {
						txn.InsertAsync(f, nextKey, body)
						nextKey++
					}
				}
				if err := txn.Commit(); err != nil {
					drv.errs++
					continue
				}
				drv.resp = append(drv.resp, p.Now()-start)
			}
			drv.doneAt = p.Now()
		})
	}
	return out
}

// repHotstock runs one hot-stock cell under the given durability mode.
func repHotstock(pc *phaseClock, sz sizing, mode string, seed int64, traced bool) *repOut {
	out := newRepOut()
	opts := ods.DefaultOptions()
	opts.Seed = seed
	opts.Durability = durabilityOf(mode)
	if traced {
		opts.Metrics = metrics.NewRegistry()
	}

	pc.enter(phBuild)
	s := ods.Build(opts)
	pc.enter(phStart)
	drivers := startHotDrivers(s, hotDrivers, sz.hotRecords, hotInserts)
	pc.enter(phRun)
	s.Run(1)

	pc.enter(phCollect)
	out.events = s.EventsExecuted()
	var resp []sim.Time
	var total, elapsed sim.Time
	for _, d := range drivers {
		out.failed += int64(d.errs)
		resp = append(resp, d.resp...)
		if d.doneAt > elapsed {
			elapsed = d.doneAt
		}
	}
	sort.Slice(resp, func(i, j int) bool { return resp[i] < resp[j] })
	ns := make([]int64, len(resp))
	for i, r := range resp {
		ns[i] = int64(r)
		total += r
	}
	out.committed = int64(len(resp))
	out.attempted = int64(hotDrivers * (sz.hotRecords / hotInserts))
	out.virtNs = int64(elapsed)
	var sums regSums
	if traced {
		sums.add(out, "hotstock-"+mode, opts.Metrics, s.Eng.Now())
		if sums.total != total {
			out.fail("registry saw %d ticks of response, the drivers %d", sums.total, total)
		}
	}
	// Let destaging finish before reading the byte counters. The idle
	// store executes a few hundred events here, so the drain stays
	// inside the collect span instead of pausing the clock around it.
	s.Eng.Spawn("drain", func(p *sim.Proc) { p.Wait(2 * sim.Second) })
	s.Eng.Run()
	writeAmplification(out, s, int64(sz.hotRecords)*hotDrivers)

	pc.enter(phCheck)
	if out.committed > 0 {
		mean := total / sim.Time(out.committed)
		out.virt["virt_resp_p50_us"] = sim.Time(percentile(ns, 50)).Micros()
		out.virt["virt_resp_p99_us"] = sim.Time(percentile(ns, 99)).Micros()
		out.virt["virt_txn_per_s"] = float64(out.committed) / elapsed.Seconds()
		col := map[string]int{"disk": 3, "pm": 4}[mode] // disk_resp_us, pm_resp_us
		out.artifacts = append(out.artifacts, artifact{"figure1_full.csv", "32,2,", col, fmt.Sprintf("%.1f", mean.Micros())})
	}
	if out.failed != 0 {
		out.fail("%d of %d transactions failed", out.failed, out.attempted)
	}
	if sz.crossCheck && !tailSupported(len(ns), 99) {
		out.fail("p99 of %d responses has fewer than %d samples beyond it", len(ns), minTailSamples)
	}
	if traced {
		sums.report(out)
	}
	pc.enter(phShutdown)
	s.Shutdown()
	pc.stop()
	return out
}

// writeAmplification reads claim C3's byte-movement counters: every hop
// a row's bytes take for durability, per inserted row, and their sum per
// user byte.
func writeAmplification(out *repOut, s *ods.Store, rows int64) {
	var dp2Ckpt, dp2Audit, dp2Destage, dp2PM, adpCkpt, adpDevice int64
	for _, dp := range s.DP2s {
		st := dp.Stats()
		dp2Ckpt += dp.Pair().CheckpointBytes
		dp2Audit += st.AuditBytes
		dp2Destage += st.WrittenBack
		dp2PM += 2 * st.PMLogBytes // mirrored
	}
	for _, a := range s.ADPs {
		st := a.Stats()
		adpCkpt += a.Pair().CheckpointBytes
		if s.Opts.Durability == ods.PMDurability {
			adpDevice += 2 * st.PMBytes // mirrored
		} else {
			adpDevice += st.FlushBytes
		}
	}
	perRow := func(b int64) float64 { return ratio(float64(b), float64(rows)) }
	v := out.virt
	v["dp2.ckpt_bytes_per_row"] = perRow(dp2Ckpt)
	v["dp2.audit_bytes_per_row"] = perRow(dp2Audit)
	v["dp2.destage_bytes_per_row"] = perRow(dp2Destage)
	v["dp2.pm_bytes_per_row"] = perRow(dp2PM)
	v["adp.ckpt_bytes_per_row"] = perRow(adpCkpt)
	v["adp.device_bytes_per_row"] = perRow(adpDevice)
	v["virt_persist_bytes_per_user_byte"] = perRow(dp2Ckpt+dp2Audit+dp2Destage+dp2PM+adpCkpt+adpDevice) / hotRecordBytes
}

// ---------------------------------------------------------------------
// Workload 3: open loop over the saturation sweep's 4-shard PM store.

// openNominal is the sweep's measured PM capacity; the artifact rungs
// are its 0.6x, 0.9x and 1.2x multiples, computed at run time exactly as
// the sweep computes them so the rates match to the last bit.
var openNominal = 2550.0

type openCell struct {
	name     string // metric suffix, and the artifact row it must match
	rate     float64
	crossPct float64
	artifact string // saturation_full.csv row prefix, "" for a rung the sweep lacks
}

func openCells() []openCell {
	return []openCell{
		{name: "r1530", rate: openNominal * 0.6, artifact: "knee,pm,4,4,1530,"},
		{name: "r2295", rate: openNominal * 0.9, artifact: "knee,pm,4,4,2295,"},
		{name: "r2550", rate: 2550},
		{name: "r2800", rate: 2800},
		{name: "r3060", rate: openNominal * 1.2, artifact: "knee,pm,4,4,3060,"},
		{name: "xs50", rate: 2000, crossPct: 50, artifact: "xshard50,pm,4,4,2000,"},
	}
}

// openOptions is the saturation sweep's store: one file of four shards
// on four data volumes, PM audit.
func openOptions(seed int64) ods.Options {
	opts := ods.DefaultOptions()
	opts.Seed = seed
	opts.Durability = ods.PMDurability
	opts.Files = []ods.FileSpec{{Name: "TRADES", Partitions: 4}}
	opts.DataVolumes = 4
	opts.PMRegionBytes = 8 << 20
	return opts
}

// repOpenLoop runs the five-rung ladder and the cross-shard cell.
func repOpenLoop(pc *phaseClock, sz sizing, seed int64, traced bool) *repOut {
	out := newRepOut()
	var sums regSums
	var ladder []rung
	for _, c := range openCells() {
		opts := openOptions(seed)
		if traced {
			opts.Metrics = metrics.NewRegistry()
		}
		cfg := loadgen.DefaultOpenConfig()
		cfg.File = "TRADES"
		cfg.Rate = c.rate
		cfg.Window = sim.Time(sz.openWindowNs)
		cfg.CrossShardPct = c.crossPct

		pc.enter(phBuild)
		s := ods.Build(opts)
		pc.enter(phStart)
		pend := loadgen.StartOpen(s, cfg)
		pc.enter(phRun)
		s.Run(1)
		pc.enter(phCollect)
		r := pend.Collect()
		if traced {
			sums.add(out, c.name, opts.Metrics, s.Eng.Now())
		}

		pc.enter(phCheck)
		out.attempted += r.Arrivals
		out.failed += r.Aborts + r.Errors + r.Drops
		out.committed += r.Commits
		out.events += r.Events
		out.virtNs += int64(r.Elapsed)
		if r.Arrivals != r.Txns+r.Drops || r.Txns != r.Commits+r.Aborts+r.Errors {
			out.fail("%s: outcome ledger does not balance: %d arrivals, %d txns, %d commits, %d aborts, %d errors, %d drops",
				c.name, r.Arrivals, r.Txns, r.Commits, r.Aborts, r.Errors, r.Drops)
		}
		if sz.crossCheck && !tailSupported(int(r.Sojourn.Count()), 99) {
			out.fail("%s: p99 of %d sojourns has fewer than %d samples beyond it", c.name, r.Sojourn.Count(), minTailSamples)
		}
		p99 := r.Sojourn.Percentile(99)
		var hot int64
		depth := 0
		for _, sh := range r.Shards {
			hot = max(hot, sh.Arrivals)
			depth = max(depth, sh.MaxDepth)
		}
		hotShare := ratio(float64(hot), float64(r.Arrivals))
		if c.crossPct == 0 {
			ladder = append(ladder, rung{rate: c.rate, p99Ns: int64(p99), arrivals: r.Arrivals,
				commits: r.Commits, elapsedNs: int64(r.Elapsed), windowNs: int64(r.Window)})
		}
		switch c.name {
		case "r1530", "r2295", "r3060":
			out.virt["virt_sojourn_p99_us_"+c.name] = p99.Micros()
		case "xs50":
			out.virt["virt_xs_p99_us"] = p99.Micros()
		}
		if c.name == "r3060" {
			out.virt["virt_txn_per_s"] = r.Delivered() // saturated capacity
		}
		if c.name == "r2295" { // the last rung under the knee: queueing shows here first
			out.virt["loadgen.virt_queue_wait_us_p99"] = r.QueueWait.Percentile(99).Micros()
			out.virt["loadgen.max_depth"] = float64(depth)
			out.virt["loadgen.hot_shard_pct"] = 100 * hotShare
		}
		if c.artifact != "" {
			out.artifacts = append(out.artifacts, artifact{"saturation_full.csv", c.artifact, wholeRow, fmt.Sprintf(
				"%.1f,%.1f,%.3f,%.3f,%.3f,%d,%d,%d,%d,%d,%d,%.3f",
				r.Offered(), r.Delivered(),
				r.Sojourn.Percentile(50).Millis(), p99.Millis(), r.Service.Percentile(99).Millis(),
				depth, r.Arrivals, r.Commits, r.Aborts, r.Errors, r.Drops, hotShare)})
		}
		pc.enter(phShutdown)
		s.Shutdown()
	}
	pc.stop()
	out.virt["virt_max_rate_tps"] = maxRate(ladder)
	if out.failed != 0 {
		out.fail("%d of %d arrivals aborted, errored or were dropped", out.failed, out.attempted)
	}
	if traced {
		sums.report(out)
	}
	return out
}

// ---------------------------------------------------------------------
// Workload 4: the fault matrix and three crash-and-recover cells.

// faultCell is one (durability x fault x phase) matrix entry.
type faultCell struct {
	name       string
	durability ods.Durability
	plan       faultinject.Plan
	twoPhase   bool
}

const faultPace = 20 * sim.Millisecond

// chaosSeed pins the matrix's one random cell to the plan
// scripts/check.sh gates. The program does not survive every chaos plan
// — `cmd/faults -txns 8 -chaos 1` loses committed keys at seeds 10 and
// 12 — and a benchmark workload must be one on which nothing fails.
const chaosSeed = 1

// faultMatrix is the 64-cell matrix scripts/check.sh gates, copied from
// cmd/faults (a main package, so not importable) as run with
// `-txns 8 -chaos 1`: per durability one clean cell, every single fault
// at three points of the commit stream, and six cross-shard cells; then
// one chaos plan. The table is the input; the seed only reaches the
// stores' engines.
func faultMatrix(txns int) []faultCell {
	planFor := func(fault string, after int64) faultinject.Plan {
		at := faultinject.Trigger{AfterCommits: after}
		restore := func(d sim.Time) faultinject.Trigger {
			return faultinject.Trigger{AfterCommits: after, Delay: d}
		}
		switch fault {
		case "cpufail": // CPU 0 hosts the TMF, PMM and ADP0 primaries
			return faultinject.Plan{
				{Kind: faultinject.CPUFail, Target: 0, When: at},
				{Kind: faultinject.CPURestore, Target: 0, When: restore(300 * sim.Millisecond)},
			}
		case "pathfail":
			return faultinject.Plan{
				{Kind: faultinject.PathFail, Target: 0, When: at},
				{Kind: faultinject.PathRestore, Target: 0, When: restore(200 * sim.Millisecond)},
			}
		case "prockill":
			return faultinject.Plan{{Kind: faultinject.ProcessKill, Service: "$TMF", When: at}}
		case "diskfail":
			return faultinject.Plan{
				{Kind: faultinject.DataVolumeFail, Target: 0, When: at},
				{Kind: faultinject.DataVolumeRestore, Target: 0, When: restore(200 * sim.Millisecond)},
			}
		case "npmufail":
			return faultinject.Plan{
				{Kind: faultinject.NPMUPowerFail, Target: 0, When: at},
				{Kind: faultinject.NPMURestore, Target: 0, When: restore(200 * sim.Millisecond)},
			}
		}
		panic("unknown fault " + fault)
	}
	seq := int64(txns / 2)
	coordKill := func(ph tmf.CommitPhase) faultinject.Plan {
		return faultinject.Plan{
			{Kind: faultinject.CPUFail, Target: 0, When: faultinject.Trigger{AtPhase: ph, AtSeq: seq}},
			{Kind: faultinject.CPURestore, Target: 0,
				When: faultinject.Trigger{AtPhase: ph, AtSeq: seq, Delay: 300 * sim.Millisecond}},
		}
	}
	partKill := func(ph tmf.CommitPhase) faultinject.Plan {
		return faultinject.Plan{{Kind: faultinject.ProcessKill, Service: "$DP-TRADES-1",
			When: faultinject.Trigger{AtPhase: ph, AtSeq: seq}}}
	}
	phases := []struct {
		name  string
		after int64
	}{{"early", 1}, {"mid", int64(txns / 2)}, {"late", int64(txns)}}

	var cells []faultCell
	for _, d := range []ods.Durability{ods.DiskDurability, ods.PMDurability, ods.PMDirectDurability} {
		add := func(fault string, plan faultinject.Plan, twoPhase bool) {
			cells = append(cells, faultCell{name: d.String() + "/" + fault, durability: d, plan: plan, twoPhase: twoPhase})
		}
		add("none", nil, false)
		faults := []string{"cpufail", "pathfail", "prockill", "diskfail"}
		if d != ods.DiskDurability {
			faults = append(faults, "npmufail")
		}
		for _, f := range faults {
			for _, ph := range phases {
				add(f+"/"+ph.name, planFor(f, ph.after), false)
			}
		}
		add("xs-none", nil, true)
		add("xs-coord/prep", coordKill(tmf.PhasePrepareStart), true)
		add("xs-coord/indoubt", coordKill(tmf.PhasePrepared), true)
		add("xs-coord/postout", coordKill(tmf.PhaseOutcomeDurable), true)
		add("xs-part/prep", partKill(tmf.PhasePrepareStart), true)
		add("xs-part/apply", partKill(tmf.PhaseApplyStart), true)
	}
	topo := faultinject.Topology{
		CPUs: 4, Paths: 2, NPMUs: 2, DataVolumes: 4,
		Services: []string{"$TMF", "$PM1", "$ADP0", "$ADP1", "$ADP2", "$ADP3",
			"$DP-TRADES-0", "$DP-TRADES-1", "$DP-TRADES-2", "$DP-TRADES-3"},
		SpareCPUs: []int{3},
	}
	probe := sim.NewEngine(chaosSeed)
	plan := faultinject.RandomPlan(probe.DeriveRand("chaos"), topo, 2, faultPace*sim.Time(txns))
	probe.Shutdown()
	return append(cells, faultCell{name: "pm/chaos0", durability: ods.PMDurability, plan: plan})
}

// recoverCell is one big crash-and-recover measurement.
type recoverCell struct {
	name       string
	durability ods.Durability
	useTCB     bool
}

var recoverCells = []recoverCell{
	{name: "disk", durability: ods.DiskDurability},               // two-pass audit-volume scan
	{name: "pm-scan", durability: ods.PMDurability},              // PM log scan, no control blocks
	{name: "pm-tcb", durability: ods.PMDurability, useTCB: true}, // PM log plus fine-grained TCBs
}

// repFaultRecover runs the fault matrix, then the three recovery cells.
func repFaultRecover(pc *phaseClock, sz sizing, seed int64, _ bool) *repOut {
	out := newRepOut()
	var sums regSums // every faultinject scenario carries a registry, traced rep or not
	var firings, resolved, histEvents int64

	matrix := faultMatrix(sz.faultTxns)
	for i := 0; i < len(matrix); i += sz.faultStride {
		c := matrix[i]
		// faultinject.Start builds the store and spawns the workload in
		// one call; both land in the build span.
		pc.enter(phBuild)
		pend := faultinject.Start(faultinject.ScenarioConfig{
			Durability: c.durability, Txns: sz.faultTxns, Seed: seed,
			Plan: c.plan, Pace: faultPace, TwoPhase: c.twoPhase,
		})
		pc.enter(phRun)
		pend.Engine().Run()
		pc.enter(phCollect)
		res := pend.Result()
		crashedAt := res.Store.Eng.Now()
		out.events += res.Store.EventsExecuted()
		pc.enter(phRecover)
		rep, rb, err := res.Recover(recovery.Options{})
		pc.enter(phCheck)
		var bad []string
		if err != nil {
			bad = append(bad, fmt.Sprintf("recovery failed: %v", err))
		} else {
			bad = res.Violations(rb)
			for _, hv := range res.CheckHistory(rb).Violations {
				bad = append(bad, "history: "+hv.String())
			}
		}
		out.attempted++
		if len(bad) > 0 {
			out.failed++
			out.fail("fault cell %s: %s (+%d more)", c.name, bad[0], len(bad)-1)
		}
		out.committed += int64(len(res.Committed) / 4)
		out.virtNs += int64(crashedAt) + int64(rep.MTTR)
		firings += int64(len(res.Injector.Firings()))
		resolved += int64(rep.OutcomeResolved)
		histEvents += int64(res.History.Len())
		// The registry's own laws are already part of Violations; add is
		// called for its sums, at the crash point.
		sums.add(newRepOut(), c.name, res.Metrics, crashedAt)
		pc.enter(phShutdown)
		res.Store.Shutdown()
	}

	for _, c := range recoverCells {
		// recovery.RunScenario builds, loads and crashes the store in
		// one call; all of it lands in the run span.
		pc.enter(phRun)
		res := recovery.RunScenario(c.durability, sz.recoverTxns, seed)
		pc.enter(phCollect)
		crashedAt := res.Store.Eng.Now()
		out.events += res.Store.EventsExecuted()
		pc.enter(phRecover)
		var rep recovery.Report
		var rb *recovery.Rebuilt
		var err error
		if c.durability == ods.DiskDurability {
			rep, rb, err = res.RecoverDisk(recovery.Options{})
		} else {
			rep, rb, err = res.RecoverPM(recovery.Options{}, c.useTCB)
		}
		pc.enter(phCheck)
		out.attempted++
		switch {
		case len(res.Errs) > 0:
			out.failed++
			out.fail("recovery cell %s: workload failed before the crash: %v", c.name, res.Errs[0])
		case err != nil:
			out.failed++
			out.fail("recovery cell %s: %v", c.name, err)
		case rb.Rows() != len(res.Committed):
			out.failed++
			out.fail("recovery cell %s: recovered %d rows, committed %d", c.name, rb.Rows(), len(res.Committed))
		}
		out.committed += int64(sz.recoverTxns)
		out.virtNs += int64(crashedAt) + int64(rep.MTTR)
		out.virt["recovery.virt_mttr_ms."+c.name] = rep.MTTR.Millis()
		if c.name != "pm-scan" {
			out.virt["recovery.records_scanned."+c.name] = float64(rep.RecordsScanned)
		}
		if c.name == "pm-tcb" {
			out.virt["virt_mttr_ms"] = rep.MTTR.Millis()
			// Transactions restored per virtual second of recovery: the
			// same fact as the MTTR, as a rate.
			out.virt["virt_txn_per_s"] = ratio(float64(sz.recoverTxns), rep.MTTR.Seconds())
		}
		pc.enter(phShutdown)
		res.Store.Shutdown()
	}
	pc.stop()
	out.virt["faultinject.firings"] = float64(firings)
	out.virt["tmf.in_doubt_resolved"] = float64(resolved)
	out.virt["consistency.events_checked"] = float64(histEvents)
	sums.report(out)
	return out
}

// ---------------------------------------------------------------------
// Set-up.

// setupStore performs one set-up of the workload's store configuration:
// ods.Build plus Store.Run on the idle store, which is where the
// services start, allocate and park. It returns the teardown, which the
// caller runs off the clock.
func setupStore(workload string, seed int64) (teardown func()) {
	var opts ods.Options
	switch workload {
	case "hotstock-disk", "hotstock-pm":
		opts = ods.DefaultOptions()
		opts.Durability = durabilityOf(workload[len("hotstock-"):])
	case "openloop-pm-mix":
		opts = openOptions(seed)
	case "fault-recover":
		// The store faultinject.Start and recovery.RunScenario build 67
		// times a rep (PM flavour, span registry attached as in the
		// matrix cells).
		opts = ods.DefaultOptions()
		opts.Durability = ods.PMDurability
		opts.RetainData = true
		opts.Files = []ods.FileSpec{{Name: "TRADES", Partitions: 4}}
		opts.DataVolumes = 4
		opts.DataVolumeBytes = 256 << 20
		opts.AuditVolumeBytes = 256 << 20
		opts.Metrics = metrics.NewRegistry()
		opts.Metrics.EnableHistory()
	default:
		panic("unknown workload " + workload)
	}
	opts.Seed = seed
	s := ods.Build(opts)
	s.Run(1)
	return s.Shutdown
}

// ---------------------------------------------------------------------
// Layer probes: isolated rigs that time calls into one layer's public
// functions.

// timeOps runs op n times after a tenth as many warm-up calls and
// returns the cost of one op. It is called from inside a simulated
// process, so host time, allocations, executed events and virtual time
// are all read around the measured loop only — rig construction and
// service start-up are excluded.
func timeOps(eng *sim.Engine, n int, op func(i int)) probeOut {
	for i := 0; i < n/10; i++ {
		op(i)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e0, v0, t0 := eng.EventsExecuted(), eng.Now(), time.Now()
	for i := 0; i < n; i++ {
		op(n/10 + i)
	}
	host := time.Since(t0)
	e1, v1 := eng.EventsExecuted(), eng.Now()
	runtime.ReadMemStats(&m1)
	per := float64(n)
	return probeOut{
		hostNs: float64(host.Nanoseconds()) / per,
		allocs: float64(m1.Mallocs-m0.Mallocs) / per,
		events: float64(e1-e0) / per,
		virtUs: (v1 - v0).Micros() / per,
	}
}

// pmRig is a 4-CPU cluster with a mirrored NPMU pair behind a PM
// manager, as in the claim-C1 rig.
func pmRig(seed int64) (*sim.Engine, *cluster.Cluster) {
	eng := sim.NewEngine(seed)
	ccfg := cluster.DefaultConfig()
	ccfg.CPUs = 4
	cl := cluster.New(eng, ccfg)
	a := npmu.NewDiscard(cl, "npmu-a", 16<<20)
	b := npmu.NewDiscard(cl, "npmu-b", 16<<20)
	pmm.Start(cl, "$PM1", 0, 1, a, b)
	return eng, cl
}

// runProbes measures every layer probe and returns them by name.
func runProbes(sz sizing, seed int64) map[string]probeOut {
	n := sz.probeOps
	out := map[string]probeOut{}
	payload := make([]byte, 4096)

	// sim.dispatch: a closure that reschedules itself through
	// Engine.Schedule — the kernel loop with nothing on it.
	{
		eng := sim.NewEngine(seed)
		left := n
		var tick func()
		tick = func() {
			if left--; left > 0 {
				eng.After(sim.Microsecond, tick)
			}
		}
		eng.After(sim.Microsecond, tick)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		eng.Run()
		host := time.Since(t0)
		runtime.ReadMemStats(&m1)
		out["sim.dispatch"] = probeOut{
			hostNs: float64(host.Nanoseconds()) / float64(n),
			allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n),
			events: float64(eng.EventsExecuted()) / float64(n),
		}
		eng.Shutdown()
	}

	// sim.wait: one process sleeping in a loop — a timer event plus a
	// coroutine resume per op.
	{
		eng := sim.NewEngine(seed)
		eng.Spawn("waiter", func(p *sim.Proc) {
			out["sim.wait"] = timeOps(eng, n, func(int) { p.Wait(sim.Microsecond) })
		})
		eng.Run()
		eng.Shutdown()
	}

	// sim.pingpong: two processes over two channels; each message costs
	// one coroutine switch.
	{
		eng := sim.NewEngine(seed)
		ping, pong := eng.NewChan("ping"), eng.NewChan("pong")
		rounds := n/2 + n/20 // timeOps adds a tenth of warm-up
		eng.Spawn("ponger", func(p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				pong.Send(p, ping.Recv(p))
			}
		})
		eng.Spawn("pinger", func(p *sim.Proc) {
			r := timeOps(eng, n/2, func(int) {
				ping.Send(p, nil)
				pong.Recv(p)
			})
			// One op was a round trip of two messages.
			out["sim.pingpong"] = probeOut{hostNs: r.hostNs / 2, allocs: r.allocs / 2, events: r.events / 2}
		})
		eng.Run()
		eng.Shutdown()
	}

	// cluster.call: a 128-byte Process.Call round trip between CPUs 0
	// and 1.
	{
		eng := sim.NewEngine(seed)
		ccfg := cluster.DefaultConfig()
		ccfg.CPUs = 2
		cl := cluster.New(eng, ccfg)
		cl.CPU(1).Spawn("echo", func(p *cluster.Process) {
			cl.Register("$ECHO", p)
			for {
				ev := p.Recv()
				ev.Reply(nil)
			}
		})
		cl.CPU(0).Spawn("caller", func(p *cluster.Process) {
			p.Wait(sim.Millisecond) // let the server register
			out["cluster.call"] = timeOps(eng, n/4, func(int) { p.Call("$ECHO", 128, nil) })
		})
		eng.Run()
		eng.Shutdown()
	}

	// cluster.checkpoint: a process pair's primary checkpointing 4 KB to
	// its backup.
	{
		eng := sim.NewEngine(seed)
		ccfg := cluster.DefaultConfig()
		ccfg.CPUs = 2
		cl := cluster.New(eng, ccfg)
		// Returning from the service body retires the pair cleanly.
		cl.StartPair("$CKPT", 0, 1, func(ctx *cluster.PairCtx) {
			out["cluster.checkpoint"] = timeOps(eng, n/4, func(int) { ctx.Checkpoint(4096, nil) })
		})
		eng.Run()
		eng.Shutdown()
	}

	// servernet.rdma_write: a 4 KB Fabric.RDMAWrite from CPU 0 into a
	// mapped window on a device endpoint.
	{
		eng := sim.NewEngine(seed)
		ccfg := cluster.DefaultConfig()
		ccfg.CPUs = 2
		cl := cluster.New(eng, ccfg)
		dev := cl.AttachDevice("probe-dev")
		dev.MapWindow(0, 1<<20, servernet.ByteWindow(make([]byte, 1<<20)), 0, servernet.Perm{Read: true, Write: true})
		from := cl.CPU(0).Endpoint().ID()
		eng.Spawn("rdma", func(p *sim.Proc) {
			out["servernet.rdma_write"] = timeOps(eng, n/4, func(int) {
				cl.Fabric().RDMAWrite(p, from, dev.ID(), 0, payload)
			})
		})
		eng.Run()
		eng.Shutdown()
	}

	// disk.write: sequential 4 KB Volume.Write on an idle volume.
	{
		eng := sim.NewEngine(seed)
		vol := disk.NewDiscard(eng, "$PROBE", disk.DefaultConfig(), 2<<30)
		eng.Spawn("disk", func(p *sim.Proc) {
			out["disk.write"] = timeOps(eng, n/4, func(i int) { vol.Write(p, int64(i)*4096, payload) })
		})
		eng.Run()
		eng.Shutdown()
	}

	// pmclient.write: a mirrored 4 KB Region.Write.
	{
		eng, cl := pmRig(seed)
		vol := pmclient.Attach(cl, "$PM1")
		cl.CPU(2).Spawn("pm", func(p *cluster.Process) {
			vol.Create(p, "probe", 1<<20)
			r, err := vol.Open(p, "probe")
			if err != nil {
				return // the probe is then missing, which the caller reports
			}
			out["pmclient.write"] = timeOps(eng, n/4, func(int) { r.Write(p, 0, payload) })
		})
		eng.Run()
		eng.Shutdown()
	}

	// btree.set: ascending inserts into an empty tree. No engine.
	{
		t := btree.New[[]byte]()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for k := 0; k < sz.btreeKeys; k++ {
			t.Set(uint64(k), nil)
		}
		host := time.Since(t0)
		runtime.ReadMemStats(&m1)
		out["btree.set"] = probeOut{
			hostNs: float64(host.Nanoseconds()) / float64(sz.btreeKeys),
			allocs: float64(m1.Mallocs-m0.Mallocs) / float64(sz.btreeKeys),
		}
	}

	// locks.acquire_release: an uncontended exclusive lock taken and
	// dropped.
	{
		eng := sim.NewEngine(seed)
		lm := locks.NewManager(eng, "probe")
		eng.Spawn("locker", func(p *sim.Proc) {
			out["locks.acquire_release"] = timeOps(eng, n, func(i int) {
				lm.Acquire(p, uint64(i), audit.TxnID(1), locks.Exclusive, sim.Second)
				lm.Release(uint64(i), audit.TxnID(1))
			})
		})
		eng.Run()
		eng.Shutdown()
	}

	// ods.insert and ods.commit: one driver commits transactions of 8
	// and of 32 inserts on a PM store. The difference over 24 is the
	// marginal cost of an InsertAsync; what remains of the 8-insert
	// transaction is the fixed cost of Begin plus Commit.
	{
		small, big := odsTxnCost(seed, sz.odsTxns, 8), odsTxnCost(seed, sz.odsTxns, 32)
		ins := probeOut{
			hostNs: (big.hostNs - small.hostNs) / 24,
			allocs: (big.allocs - small.allocs) / 24,
			events: (big.events - small.events) / 24,
		}
		out["ods.insert"] = ins
		out["ods.commit"] = probeOut{
			hostNs: small.hostNs - 8*ins.hostNs,
			allocs: small.allocs - 8*ins.allocs,
			events: small.events - 8*ins.events,
		}
	}
	return out
}

// odsTxnCost times txns back-to-back transactions of the given number of
// 4 KB inserts on a PM store and returns the cost of one transaction.
func odsTxnCost(seed int64, txns, inserts int) probeOut {
	opts := ods.DefaultOptions()
	opts.Seed = seed
	opts.Durability = ods.PMDurability
	s := ods.Build(opts)
	defer s.Shutdown()
	var out probeOut
	s.Cl.CPU(0).Spawn("probe", func(p *cluster.Process) {
		se := s.NewSession(p)
		body := make([]byte, hotRecordBytes)
		key := uint64(1)
		out = timeOps(s.Eng, txns, func(int) {
			txn, err := se.Begin()
			if err != nil {
				return
			}
			for _, f := range s.Opts.Files { // spread evenly over the files, as the hot-stock drivers do
				for i := 0; i < inserts/len(s.Opts.Files); i++ {
					txn.InsertAsync(f.Name, key, body)
					key++
				}
			}
			txn.Commit()
		})
	})
	s.Run(1)
	return out
}
