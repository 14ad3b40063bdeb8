// Benchmarks regenerating every figure in the paper's evaluation plus the
// prose-claim tables and ablations, one testing.B benchmark per
// experiment. Each iteration runs the complete experiment in virtual time
// (so wall-clock cost measures the simulator, while the reported custom
// metrics carry the experiment's virtual-time results).
//
//	go test -bench=. -benchmem
//
// Full paper-scale sweeps are produced by cmd/figures -scale full; the
// benchmarks here use the smoke scale so the whole suite runs in seconds.
package persistmem_test

import (
	"testing"

	"persistmem/internal/bench"
	"persistmem/internal/faultinject"
	"persistmem/internal/hotstock"
	"persistmem/internal/ods"
	"persistmem/internal/recovery"
	"persistmem/internal/sim"
)

// BenchmarkFigure1 regenerates Figure 1 (response-time speedup with PM vs
// transaction size, 1–4 drivers). Reported metrics: the speedup at the
// paper's headline point (32k, 1 driver) and the minimum speedup across
// the whole figure.
func BenchmarkFigure1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := bench.Runner{}.Figure1(1, bench.Smoke)
		if errs := f.CheckShape(); len(errs) > 0 {
			b.Fatalf("shape: %v", errs)
		}
		min := f.Speedup[0][0]
		for _, row := range f.Speedup {
			for _, s := range row {
				if s < min {
					min = s
				}
			}
		}
		b.ReportMetric(f.Speedup[0][0], "speedup32k1drv")
		b.ReportMetric(min, "speedupMin")
	}
}

// BenchmarkFigure2 regenerates Figure 2 (elapsed time vs transaction
// size, 1–2 drivers, PM vs no-PM). Reported metrics: how steeply the
// no-PM elapsed time grows from 128k to 32k boxcars versus PM's.
func BenchmarkFigure2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := bench.Runner{}.Figure2(1, bench.Smoke)
		if errs := f.CheckShape(); len(errs) > 0 {
			b.Fatalf("shape: %v", errs)
		}
		last := len(f.Elapsed) - 1
		b.ReportMetric(float64(f.Elapsed[0][0])/float64(f.Elapsed[last][0]), "noPMgrowth")
		b.ReportMetric(float64(f.Elapsed[0][2])/float64(f.Elapsed[last][2]), "pmGrowth")
	}
}

// BenchmarkClaimLatency regenerates the C1 storage-gap table (§3.2/§3.3):
// disk-stack write latency vs synchronous mirrored PM write latency.
// Reported metrics: both latencies at 512 B, in virtual microseconds.
func BenchmarkClaimLatency(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := bench.RunClaimC1(1)
		if errs := c.CheckShape(); len(errs) > 0 {
			b.Fatalf("shape: %v", errs)
		}
		b.ReportMetric(c.DiskWrite[1].Micros(), "diskWrite512B-us")
		b.ReportMetric(c.PMWrite[1].Micros(), "pmWrite512B-us")
	}
}

// BenchmarkClaimMTTR regenerates the C2 recovery experiment (§3.4):
// restart recovery time from disk audit vs PM audit with fine-grained
// transaction control blocks. Reported metrics: both MTTRs in virtual
// milliseconds.
func BenchmarkClaimMTTR(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dres := recovery.RunScenario(ods.DiskDurability, 100, 1)
		diskRep, _, err := dres.RecoverDisk(recovery.Options{})
		if err != nil {
			b.Fatal(err)
		}
		dres.Store.Eng.Shutdown()
		pres := recovery.RunScenario(ods.PMDurability, 100, 1)
		pmRep, _, err := pres.RecoverPM(recovery.Options{}, true)
		if err != nil {
			b.Fatal(err)
		}
		pres.Store.Eng.Shutdown()
		if pmRep.MTTR >= diskRep.MTTR {
			b.Fatalf("PM MTTR %v not below disk %v", pmRep.MTTR, diskRep.MTTR)
		}
		b.ReportMetric(diskRep.MTTR.Millis(), "diskMTTR-ms")
		b.ReportMetric(pmRep.MTTR.Millis(), "pmMTTR-ms")
	}
}

// BenchmarkFaultCell measures one `-txns 8` fault-matrix cell, store to
// verdict: build, a CPU-0 failure after the fourth commit, the crash,
// recovery, the invariants and the history check. Its ns, B and allocs per
// op are what a matrix pays for each cell it adds.
func BenchmarkFaultCell(b *testing.B) {
	for _, d := range []ods.Durability{ods.DiskDurability, ods.PMDurability} {
		b.Run(d.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := faultinject.Run(faultinject.ScenarioConfig{
					Durability: d, Txns: 8, Seed: 1, Pace: 20 * sim.Millisecond,
					Plan: faultinject.Plan{
						{Kind: faultinject.CPUFail, Target: 0, When: faultinject.Trigger{AfterCommits: 4}},
						{Kind: faultinject.CPURestore, Target: 0, When: faultinject.Trigger{AfterCommits: 4, Delay: 300 * sim.Millisecond}},
					},
				})
				rep, rb, err := res.Recover(recovery.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if bad := res.Violations(rb); len(bad) > 0 {
					b.Fatalf("violations: %v", bad)
				}
				if hv := res.CheckHistory(rb).Violations; len(hv) > 0 {
					b.Fatalf("history: %v", hv)
				}
				res.Store.Shutdown()
				b.ReportMetric(rep.MTTR.Millis(), "MTTR-ms")
			}
		})
	}
}

// BenchmarkRecovery measures Claim C2's four 4000-transaction recoveries
// alone: the benchmark fault-recover workload's three — off the audit disks,
// and out of the PM audit trails with the outcome scan and with the TCB
// region — and PM direct's, out of the per-DP2 PM logs with the TCB region.
// Each iteration builds and crashes its store with the timer stopped; B/op
// and allocs/op are the recovery's, reboot included, MTTR-ms its virtual
// time, and late-records the data records its redo left for after the
// barrier.
func BenchmarkRecovery(b *testing.B) {
	for _, path := range []struct {
		name   string
		d      ods.Durability
		useTCB bool
	}{
		{"disk", ods.DiskDurability, false},
		{"pm-scan", ods.PMDurability, false},
		{"pm-tcb", ods.PMDurability, true},
		{"pmdirect-tcb", ods.PMDirectDurability, true},
	} {
		b.Run(path.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				res := recovery.RunScenario(path.d, 4000, 1)
				b.StartTimer()
				var rep recovery.Report
				var err error
				if path.d == ods.DiskDurability {
					rep, _, err = res.RecoverDisk(recovery.Options{})
				} else {
					rep, _, err = res.RecoverPM(recovery.Options{}, path.useTCB)
				}
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				res.Store.Eng.Shutdown()
				b.StartTimer()
				b.ReportMetric(rep.MTTR.Millis(), "MTTR-ms")
				b.ReportMetric(float64(rep.RedoneAfterBarrier), "late-records")
			}
		})
	}
}

// BenchmarkClaimWriteAmp regenerates the C3 write-amplification table
// (§3.4): bytes moved per inserted row for durability, disk vs PM
// configuration. Reported metric: the log writer's backup-checkpoint
// bytes per row in each mode (the hop PM eliminates).
func BenchmarkClaimWriteAmp(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := bench.Runner{}.ClaimC3(1, bench.Smoke)
		if errs := c.CheckShape(); len(errs) > 0 {
			b.Fatalf("shape: %v", errs)
		}
		b.ReportMetric(float64(c.Disk.ADPCheckpointBytes)/float64(c.Rows), "diskLogCkptB/row")
		b.ReportMetric(float64(c.PM.ADPCheckpointBytes)/float64(c.Rows), "pmLogCkptB/row")
	}
}

// BenchmarkAblationGroupCommit measures ablation A1: elapsed-time penalty
// of disabling commit piggybacking in the disk log writer at 4 drivers.
func BenchmarkAblationGroupCommit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := bench.Runner{}.AblationA1(1, bench.Smoke)
		if errs := a.CheckShape(); len(errs) > 0 {
			b.Fatalf("shape: %v", errs)
		}
		last := len(a.Drivers) - 1
		b.ReportMetric(float64(a.ElapsedOff[last])/float64(a.ElapsedOn[last]), "penalty4drv")
	}
}

// BenchmarkAblationMirroring measures ablation A2: response-time overhead
// of writing both NPMUs of the mirrored pair versus a single device.
func BenchmarkAblationMirroring(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := bench.Runner{}.AblationA2(1, bench.Smoke)
		if errs := a.CheckShape(); len(errs) > 0 {
			b.Fatalf("shape: %v", errs)
		}
		b.ReportMetric(float64(a.MirroredResp)/float64(a.SingleResp), "mirrorOverhead")
	}
}

// BenchmarkAblationNetLatency measures ablation A3: PM-mode response time
// across the paper's 10–20 µs ServerNet software-latency range.
func BenchmarkAblationNetLatency(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := bench.Runner{}.AblationA3(1, bench.Smoke)
		if errs := a.CheckShape(); len(errs) > 0 {
			b.Fatalf("shape: %v", errs)
		}
		b.ReportMetric(a.PMResp[0].Micros(), "resp10us-us")
		b.ReportMetric(a.PMResp[len(a.PMResp)-1].Micros(), "resp20us-us")
	}
}

// BenchmarkHotStockDisk and BenchmarkHotStockPM measure the simulator
// itself: wall-clock cost of one full hot-stock transaction (virtual
// response time is reported as a metric).
func BenchmarkHotStockDisk(b *testing.B) {
	benchmarkHotStock(b, ods.DiskDurability)
}

// BenchmarkHotStockPM is the PM-mode counterpart of BenchmarkHotStockDisk.
func BenchmarkHotStockPM(b *testing.B) {
	benchmarkHotStock(b, ods.PMDurability)
}

func benchmarkHotStock(b *testing.B, d ods.Durability) {
	b.ReportAllocs()
	txns := b.N
	opts := ods.DefaultOptions()
	opts.Durability = d
	b.ResetTimer()
	r := hotstock.Run(opts, hotstock.Params{
		Drivers:          1,
		RecordsPerDriver: txns * 8,
		InsertsPerTxn:    8,
	})
	b.StopTimer()
	b.ReportMetric(r.MeanResp().Micros(), "virtResp-us")
	// Simulation events per transaction: with -benchmem this turns the
	// allocs/op column into allocs/event at a glance.
	b.ReportMetric(float64(r.Events)/float64(b.N), "events/op")
	// The share of events that cost a process switch.
	b.ReportMetric(float64(r.Switches)/float64(r.Events), "switches/event")
}
