package recovery

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"persistmem/internal/cluster"
	"persistmem/internal/ods"
	"persistmem/internal/pmclient"
	"persistmem/internal/sim"
	"persistmem/internal/tmf"
)

// sameButMTTR reports whether two recoveries found the same things: every
// Report field but the time it took.
func sameButMTTR(a, b Report) bool {
	a.MTTR, b.MTTR = 0, 0
	return a == b
}

// TestParallelRecoveryEqualsSerial holds each path's recovery with one worker
// per trail spread over the node's CPUs to what the same passes give run one
// after another on a single CPU: the same rows and bodies, the same Report
// but for MTTR, which the spread recovery must beat. A key's records all sit
// in one trail, so spreading the trails cannot reorder its redo; this is the
// check that they do.
func TestParallelRecoveryEqualsSerial(t *testing.T) {
	for _, tc := range recoveryPaths {
		t.Run(tc.name, func(t *testing.T) {
			spread, serial := RunScenario(tc.d, 200, 3), RunScenario(tc.d, 200, 3)
			defer spread.Store.Eng.Shutdown()
			defer serial.Store.Eng.Shutdown()
			rep, rb := recoverWith(t, spread, tc.useTCB, false)
			wantRep, wantRb := recoverWith(t, serial, tc.useTCB, true)
			if !slices.Equal(image(rb), image(wantRb)) {
				t.Errorf("the spread recovery rebuilt %d rows, the serial one %d, and they differ", rb.Rows(), wantRb.Rows())
			}
			if !sameButMTTR(rep, wantRep) {
				t.Errorf("spread report %+v, serial %+v", rep, wantRep)
			}
			if rep.MTTR >= wantRep.MTTR {
				t.Errorf("spread MTTR %v, serial %v: the workers did not overlap", rep.MTTR, wantRep.MTTR)
			}
			checkGroundTruth(t, rb, spread)
		})
	}
	for _, split := range []bool{false, true} {
		rep, rb := recoverFixture(t, inDoubtFixture(split), false)
		wantRep, wantRb := recoverFixture(t, inDoubtFixture(split), true)
		if !slices.Equal(image(rb), image(wantRb)) || !sameButMTTR(rep, wantRep) {
			t.Errorf("in-doubt fixture (split %v): spread %+v %q, serial %+v %q", split, rep, image(rb), wantRep, image(wantRb))
		}
	}
}

// recoverPath runs RecoverDisk or RecoverPM with TCBs, by durability.
func recoverPath(res ScenarioResult) (Report, *Rebuilt, error) {
	if res.Store.Opts.Durability == ods.DiskDurability {
		return res.RecoverDisk(Options{})
	}
	return res.RecoverPM(Options{}, true)
}

// cleanRecovery is a clean recovery's report of the 100-transaction
// scenario the loss tests crash, on a twin store of their own.
func cleanRecovery(t *testing.T, d ods.Durability) Report {
	t.Helper()
	twin := RunScenario(d, 100, 1)
	defer twin.Store.Eng.Shutdown()
	rep, _, err := recoverPath(twin)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// checkRerun holds a store whose recovery was cut short: no recovery process
// is left parked, every CPU is free, and a second recovery rebuilds every
// committed row with a clean recovery's report.
func checkRerun(t *testing.T, res ScenarioResult, clean Report) {
	t.Helper()
	for _, name := range res.Store.Eng.BlockedProcs() {
		if strings.HasPrefix(name, "recover") {
			t.Fatalf("%s left waiting after the recovery was cut short: %v", name, res.Store.Eng.BlockedProcs())
		}
	}
	for i := range res.Store.Cl.NumCPUs() {
		if n := res.Store.Cl.CPU(i).InUse(); n != 0 {
			t.Errorf("CPU %d held by %d processes at quiescence", i, n)
		}
	}
	rep, rb, err := recoverPath(res)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	checkGroundTruth(t, rb, res)
	if rb.Rows() != len(res.Committed) || !sameButMTTR(rep, clean) {
		t.Errorf("rerun rebuilt %d rows of %d committed, report %+v; a clean recovery's is %+v", rb.Rows(), len(res.Committed), rep, clean)
	}
}

// TestWorkerLossFailsRecovery fails the CPU of one recovery worker in the
// middle of a pass: its read, on the disk and PM + TCB paths; the disk
// path's analysis, before the barrier; and redo, the last. The recovery must
// return ErrWorkerLost — not ErrNoLog, not hang on the dead worker, not hand
// back a partial image, and not leave the other workers parked at the
// barrier — and, once the CPU is restored, a second recovery of the same
// store must rebuild every committed row, though on the PM path the dead
// worker's region is still open at the PM manager.
func TestWorkerLossFailsRecovery(t *testing.T) {
	// 100 transactions: 101 records in each trail, and 100 commit records
	// more in trail 0. On disk the four trails are read in the first 10.3 ms
	// of 10.91, then analysis takes 402 µs on trail 0 and every redo 202 µs;
	// on PM + TCB trail 3's read runs from 5.0 to 8.5 ms of 8.75. Trail 3's
	// worker runs on CPU 3.
	for _, tc := range []struct {
		name   string
		d      ods.Durability
		before sim.Time // how long before a clean recovery's end CPU 3 fails
	}{
		{"disk/read", ods.DiskDurability, 5 * sim.Millisecond},
		{"disk/redo", ods.DiskDurability, 100 * sim.Microsecond},
		{"disk/analysis", ods.DiskDurability, 500 * sim.Microsecond},
		{"pm/tcb=true/read", ods.PMDurability, 1 * sim.Millisecond},
		{"pm/tcb=true/redo", ods.PMDurability, 100 * sim.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clean := cleanRecovery(t, tc.d)
			res := RunScenario(tc.d, 100, 1)
			defer res.Store.Eng.Shutdown()
			res.Store.Eng.Schedule(res.Store.Eng.Now()+clean.MTTR-tc.before, func() {
				res.Store.Cl.CPU(3).Fail()
			})
			_, rb, err := recoverPath(res)
			if !errors.Is(err, ErrWorkerLost) {
				t.Fatalf("recovery with a worker's CPU failed mid-pass returned %v, want ErrWorkerLost", err)
			}
			if rb != nil {
				t.Fatalf("a failed recovery returned an image of %d rows", rb.Rows())
			}
			res.Store.Cl.CPU(3).Restore()
			checkRerun(t, res, clean)
		})
	}
}

// TestRecoveringProcessLossSendsWorkersHome kills the recovering process
// itself — with its CPU, CPU 2, which takes trail 2's worker along, and
// alone — once while the workers read and once while some of them wait at
// the barrier. Nobody is left to release the workers still alive, so each
// must go home at its next meeting: the engine quiesces with no worker
// parked and every CPU free, and once CPU 2 is back a rerun rebuilds the
// whole image.
func TestRecoveringProcessLossSendsWorkersHome(t *testing.T) {
	// Timings as in TestWorkerLossFailsRecovery. On disk all four workers
	// read 5 ms before the end, and 300 µs before it workers 1–3 wait at the
	// barrier while worker 0 analyses; on PM + TCB all four read 3 ms before
	// the end, and 1 ms before it workers 0 and 1 wait at the barrier while 2
	// and 3 read.
	for _, tc := range []struct {
		d      ods.Durability
		phase  string
		before sim.Time // how long before a clean recovery's end the kill comes
	}{
		{ods.DiskDurability, "read", 5 * sim.Millisecond},
		{ods.DiskDurability, "barrier", 300 * sim.Microsecond},
		{ods.PMDurability, "read", 3 * sim.Millisecond},
		{ods.PMDurability, "barrier", sim.Millisecond},
	} {
		clean := cleanRecovery(t, tc.d)
		for _, cpu := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v/%s/cpu=%v", tc.d, tc.phase, cpu), func(t *testing.T) {
				res := RunScenario(tc.d, 100, 1)
				defer res.Store.Eng.Shutdown()
				res.Reboot()
				eng := res.Store.Eng
				done := false
				p := res.Store.Cl.CPU(2).Spawn("recover", func(p *cluster.Process) {
					if tc.d == ods.DiskDurability {
						_, _, _ = FromDisk(p, res.Store.AuditVolumes, Options{})
					} else {
						_, _, _ = FromPM(p, pmclient.Attach(res.Store.Cl, ods.PMVolumeName), res.logRegions(), tmf.TCBRegionName, Options{})
					}
					done = true
				})
				eng.Schedule(eng.Now()+clean.MTTR-tc.before, func() {
					if cpu {
						res.Store.Cl.CPU(2).Fail()
					} else {
						p.Kill()
					}
				})
				eng.Run()
				if done {
					t.Fatal("the recovery finished before its process was killed")
				}
				res.Store.Cl.CPU(2).Restore()
				checkRerun(t, res, clean)
			})
		}
	}
}

// streamsOptions is the PM crash scenario's store with its four data volumes
// split into eight partitions and their audit into streams log writers.
func streamsOptions(streams int) ods.Options {
	opts := ScenarioOptions(ods.PMDurability, 1)
	opts.AuditStreams = streams
	opts.Files = []ods.FileSpec{{Name: "TRADES", Partitions: 8}}
	opts.DataVolumes = 8
	opts.PMRegionBytes = 8 << 20
	return opts
}

// redoPhase measures how long a PM + TCB recovery of the streams store
// spends in redo, its one charged pass, at CPUPerRecord c: the MTTR at 2c
// less the MTTR at c, since only redo's charge depends on c. It returns the
// records redo charged too.
func redoPhase(t *testing.T, streams int, c sim.Time) (sim.Time, int64) {
	t.Helper()
	var mttr [2]sim.Time
	var records int64
	for i := range mttr {
		res := runScenario(streamsOptions(streams), 200)
		rep, rb, err := res.RecoverPM(Options{CPUPerRecord: sim.Time(i+1) * c}, true)
		res.Store.Eng.Shutdown()
		if err != nil {
			t.Fatal(err)
		}
		if rb.Rows() != len(res.Committed) {
			t.Fatalf("%d rows recovered, %d committed", rb.Rows(), len(res.Committed))
		}
		mttr[i], records = rep.MTTR, rep.RecordsScanned
	}
	return mttr[1] - mttr[0], records
}

// TestRecoverySpeedupCappedByCPUs holds the workers to the node's four CPUs:
// eight trails overlap four at a time, so their redo takes no less than a
// quarter of the serial charge, and a store with one trail takes exactly the
// serial charge.
func TestRecoverySpeedupCappedByCPUs(t *testing.T) {
	const c = 2 * sim.Microsecond
	phase, records := redoPhase(t, 8, c)
	serial := sim.Time(records) * c
	if phase < serial/4 || phase >= serial {
		t.Errorf("8 trails on 4 CPUs: redo took %v of a %v serial charge, want at least a quarter and less than all", phase, serial)
	}
	phase, records = redoPhase(t, 1, c)
	if serial := sim.Time(records) * c; phase != serial {
		t.Errorf("1 trail: redo took %v, the serial charge of %d records is %v", phase, records, serial)
	}
}
