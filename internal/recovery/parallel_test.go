package recovery

import (
	"errors"
	"slices"
	"testing"

	"persistmem/internal/ods"
	"persistmem/internal/sim"
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
			rep, rb := recoverWith(t, spread, tc.useTCB, &scratch{buf: []byte{}}, false)
			wantRep, wantRb := recoverWith(t, serial, tc.useTCB, &scratch{buf: []byte{}}, true)
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

// TestWorkerLossFailsRecovery fails the CPU of one recovery worker in the
// middle of a pass: redo, the last, on the disk and PM + TCB paths, and the
// disk path's analysis, before the barrier. The recovery must return an
// error — not hang on the dead worker, not hand back a partial image, and
// not leave the other workers parked at the barrier — and, once the CPU is
// restored, a second recovery of the same store must rebuild every
// committed row.
func TestWorkerLossFailsRecovery(t *testing.T) {
	// 100 transactions: 101 records in each trail, and 100 commit records
	// more in trail 0, so the disk path's analysis takes 402 µs and every
	// redo 202 µs. Trail 3's worker runs on CPU 3.
	const txns = 100
	for _, tc := range []struct {
		name   string
		d      ods.Durability
		before sim.Time // how long before a clean recovery's end CPU 3 fails
	}{
		{"disk/redo", ods.DiskDurability, 100 * sim.Microsecond},
		{"disk/analysis", ods.DiskDurability, 500 * sim.Microsecond},
		{"pm/tcb=true/redo", ods.PMDurability, 100 * sim.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recover := func(res ScenarioResult) (Report, *Rebuilt, error) {
				if tc.d == ods.DiskDurability {
					return res.RecoverDisk(Options{})
				}
				return res.RecoverPM(Options{}, true)
			}
			twin := RunScenario(tc.d, txns, 1)
			clean, _, err := recover(twin)
			twin.Store.Eng.Shutdown()
			if err != nil {
				t.Fatal(err)
			}

			res := RunScenario(tc.d, txns, 1)
			defer res.Store.Eng.Shutdown()
			res.Store.Eng.Schedule(res.Store.Eng.Now()+clean.MTTR-tc.before, func() {
				res.Store.Cl.CPU(3).Fail()
			})
			_, rb, err := recover(res)
			if !errors.Is(err, ErrWorkerLost) {
				t.Fatalf("recovery with a worker's CPU failed mid-pass returned %v, want ErrWorkerLost", err)
			}
			if rb != nil {
				t.Fatalf("a failed recovery returned an image of %d rows", rb.Rows())
			}
			if blocked := res.Store.Eng.BlockedProcs(); slices.Contains(blocked, "recover-worker") {
				t.Fatalf("workers left waiting after the recovery failed: %v", blocked)
			}

			res.Store.Cl.CPU(3).Restore()
			rep, rb, err := recover(res)
			if err != nil {
				t.Fatalf("rerun after the CPU's restore: %v", err)
			}
			checkGroundTruth(t, rb, res)
			if rb.Rows() != len(res.Committed) || !sameButMTTR(rep, clean) {
				t.Errorf("rerun rebuilt %d rows of %d committed, report %+v; a clean recovery's is %+v", rb.Rows(), len(res.Committed), rep, clean)
			}
		})
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
