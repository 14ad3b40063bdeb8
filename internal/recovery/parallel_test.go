package recovery

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"persistmem/internal/audit"
	"persistmem/internal/cluster"
	"persistmem/internal/ods"
	"persistmem/internal/pmclient"
	"persistmem/internal/sim"
	"persistmem/internal/tmf"
)

// sameButMTTR reports whether two recoveries found the same things: every
// Report field but the time it took and when its redo ran.
func sameButMTTR(a, b Report) bool {
	a.MTTR, b.MTTR = 0, 0
	a.RedoneAfterBarrier, b.RedoneAfterBarrier = 0, 0
	return a == b
}

// TestParallelRecoveryEqualsSerial holds each path's recovery with one worker
// per trail spread over the node's CPUs to what the same passes give run one
// after another on a single CPU: the same rows and bodies, the same Report
// but for MTTR, which the spread recovery must beat. A key's records all sit
// in one trail, so spreading the trails cannot reorder its redo; this is the
// check that they do. Over hand-built trails — the in-doubt fixture, and
// streamed ones whose early redo stands or is discarded — both must also
// rebuild exactly what the read-then-scan recovery the pipeline replaced
// rebuilds, with its Report but for MTTR.
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
		var trails [][][]byte
		for _, stream := range inDoubtFixture(split) {
			trails = append(trails, [][]byte{stream})
		}
		if oracleRep, oracle := readThenScan(trails, nil, Options{}); !slices.Equal(image(rb), oracle) || !sameButMTTR(rep, oracleRep) {
			t.Errorf("in-doubt fixture (split %v): streamed %+v %q, read-then-scan %+v %q", split, rep, image(rb), oracleRep, oracle)
		}
	}
	for _, f := range fixtures() {
		t.Run(f.name, func(t *testing.T) {
			wantRep, want := readThenScan(f.trails, f.tcb, streamOpts)
			for _, serial := range []bool{false, true} {
				rep, rows := recoverFixtureStreamed(t, f, serial)
				if !slices.Equal(rows, want) || !sameButMTTR(rep, wantRep) {
					t.Errorf("serial %v: streamed %+v %q, read-then-scan %+v %q", serial, rep, rows, wantRep, want)
				}
			}
		})
	}
}

// recoverPath runs RecoverDisk or RecoverPM with TCBs, by durability.
func recoverPath(res ScenarioResult, opts Options) (Report, *Rebuilt, error) {
	if res.Store.Opts.Durability == ods.DiskDurability {
		return res.RecoverDisk(opts)
	}
	return res.RecoverPM(opts, true)
}

// cleanRecovery is a clean recovery's report of the 100-transaction
// scenario the loss tests crash, on a twin store of their own.
func cleanRecovery(t *testing.T, d ods.Durability, opts Options) Report {
	t.Helper()
	twin := RunScenario(d, 100, 1)
	defer twin.Store.Eng.Shutdown()
	rep, _, err := recoverPath(twin, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// checkRerun holds a store whose recovery was cut short: no recovery process
// is left parked, every CPU is free, and a second recovery rebuilds every
// committed row with a clean recovery's report.
func checkRerun(t *testing.T, res ScenarioResult, clean Report, opts Options) {
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
	rep, rb, err := recoverPath(res, opts)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	checkGroundTruth(t, rb, res)
	if rb.Rows() != len(res.Committed) || !sameButMTTR(rep, clean) {
		t.Errorf("rerun rebuilt %d rows of %d committed, report %+v; a clean recovery's is %+v", rb.Rows(), len(res.Committed), rep, clean)
	}
}

// TestWorkerLossFailsRecovery fails the CPU of one recovery worker in the
// middle of its work: while the other workers wait for it at the open
// meeting, on the PM + TCB path; in its read, on the disk and PM + TCB
// paths, and while its read-ahead process reads on; in the disk path's
// analysis, before the barrier; and in redo — after the barrier on disk, as
// each chunk lands with TCBs. The recovery must return ErrWorkerLost — not
// ErrNoLog, not hang on the dead worker, not hand back a partial image, and
// not leave the other workers parked at a meeting or a read-ahead process
// behind — and, once the CPU is restored, a second recovery of the same store
// must rebuild every committed row, though on the PM path the dead worker's
// region is still open at the PM manager.
func TestWorkerLossFailsRecovery(t *testing.T) {
	// 100 transactions: 101 records in each trail, and 100 commit records
	// more in trail 0. On disk the four trails are read in the first 10.31 ms
	// of 10.91, then analysis takes 400 µs on trail 0 and 200 µs on the
	// others, and every redo after the barrier 200 µs. On PM + TCB (3.54 ms)
	// the workers open their regions from 0.83 to 1.04 ms, trail 0's and 1's
	// workers waiting at the open meeting from 0.89 and 0.94 ms; trail 3
	// reads its two replicas from 1.04 to 2.67 ms, redoes them until 2.87 ms
	// and waits at the barrier from 3.27 ms. Read in 4 KiB chunks (1.59 ms),
	// trail 3's first chunk is in at 1.34 ms and its read-ahead process
	// reads on until 1.56 ms. Trail 3's worker, and its reader, run on CPU 3.
	for _, tc := range []struct {
		name   string
		d      ods.Durability
		chunk  int
		before sim.Time // how long before a clean recovery's end CPU 3 fails
	}{
		{"disk/read", ods.DiskDurability, 0, 5 * sim.Millisecond},
		{"disk/redo", ods.DiskDurability, 0, 100 * sim.Microsecond},
		{"disk/analysis", ods.DiskDurability, 0, 500 * sim.Microsecond},
		{"pm/tcb=true/open", ods.PMDurability, 0, 2600 * sim.Microsecond},
		{"pm/tcb=true/read", ods.PMDurability, 0, 1 * sim.Millisecond},
		{"pm/tcb=true/read-ahead", ods.PMDurability, 4 << 10, 140 * sim.Microsecond},
		{"pm/tcb=true/redo", ods.PMDurability, 0, 700 * sim.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{ChunkBytes: tc.chunk}
			clean := cleanRecovery(t, tc.d, opts)
			res := RunScenario(tc.d, 100, 1)
			defer res.Store.Eng.Shutdown()
			reading := false // a read-ahead process was mid-read when CPU 3 failed
			res.Store.Eng.Schedule(res.Store.Eng.Now()+clean.MTTR-tc.before, func() {
				reading = slices.Contains(res.Store.Eng.BlockedProcs(), "recover-reader")
				res.Store.Cl.CPU(3).Fail()
			})
			_, rb, err := recoverPath(res, opts)
			if want := tc.chunk != 0; reading != want {
				t.Errorf("a read-ahead process was mid-read when CPU 3 failed: %v, want %v", reading, want)
			}
			if !errors.Is(err, ErrWorkerLost) {
				t.Fatalf("recovery with a worker's CPU failed mid-pass returned %v, want ErrWorkerLost", err)
			}
			if rb != nil {
				t.Fatalf("a failed recovery returned an image of %d rows", rb.Rows())
			}
			res.Store.Cl.CPU(3).Restore()
			checkRerun(t, res, clean, opts)
		})
	}
}

// TestWorkerLossWakesPeersWaitingOnCommits fails a worker's CPU while a peer
// whose trail is done still holds a deferred record — an aborted
// transaction's, which no commit will ever release — and so waits in its
// stream loop for the commits the streaming workers may yet show. The lost
// worker streams no more: the waiting peer must be woken and go home, the
// recovery return ErrWorkerLost with no recovery process left parked, and,
// once the CPU is back, a second recovery on the same node rebuild what the
// read-then-scan oracle rebuilds. (The 100-transaction loss tests cannot see
// this: the TCB ring names all their transactions, so nothing is pending.)
func TestWorkerLossWakesPeersWaitingOnCommits(t *testing.T) {
	// Trail 0, on CPU 0, is one 256-byte read: two committed transactions and
	// transaction 99's insert, which the TCB table names aborted. Trail 1, on
	// CPU 1, is ~40 reads of 50 µs; its CPU fails 300 µs in, mid-stream.
	short := audit.AppendRecord(logOf(nil, "a", 1, 2), &audit.Record{Type: audit.RecInsert, Txn: 99, File: "TRADES", Key: 990, Body: []byte("x")})
	trails := [][][]byte{{short}, {logOf(nil, "b", span(3, 40)...)}}
	tcb := committedTCBs(span(1, 40)...)
	tcb[99] = tmf.TCBAborted

	eng := sim.NewEngine(1)
	defer eng.Shutdown()
	cl := cluster.New(eng, cluster.DefaultConfig())
	eng.Schedule(300*sim.Microsecond, func() { cl.CPU(1).Fail() })
	_, rb, err := recoverLogsOn(cl, nodeCPUs(cl), trails, tcb, streamOpts, streamPerRead)
	if !errors.Is(err, ErrWorkerLost) {
		t.Fatalf("recovery with a streaming worker's CPU failed returned %v, want ErrWorkerLost", err)
	}
	if rb != nil {
		t.Fatalf("a failed recovery returned an image of %d rows", rb.Rows())
	}
	for _, name := range eng.BlockedProcs() {
		if strings.HasPrefix(name, "recover") {
			t.Fatalf("%s left waiting after a worker was lost: %v", name, eng.BlockedProcs())
		}
	}

	cl.CPU(1).Restore()
	rep, rb, err := recoverLogsOn(cl, nodeCPUs(cl), trails, tcb, streamOpts, streamPerRead)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	wantRep, want := readThenScan(trails, tcb, streamOpts)
	if rows := image(rb); !slices.Equal(rows, want) || !sameButMTTR(rep, wantRep) {
		t.Errorf("rerun: %+v %q, read-then-scan %+v %q", rep, rows, wantRep, want)
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
	// barrier while worker 0 analyses; on PM + TCB all four read 1.5 ms before
	// the end, and 240 µs before it workers 0 and 3 wait at the barrier while
	// 1 and 2 redo their trails.
	for _, tc := range []struct {
		d      ods.Durability
		phase  string
		before sim.Time // how long before a clean recovery's end the kill comes
	}{
		{ods.DiskDurability, "read", 5 * sim.Millisecond},
		{ods.DiskDurability, "barrier", 300 * sim.Microsecond},
		{ods.PMDurability, "read", 1500 * sim.Microsecond},
		{ods.PMDurability, "barrier", 240 * sim.Microsecond},
	} {
		clean := cleanRecovery(t, tc.d, Options{})
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
						_, _, _ = FromPM(p, pmclient.Attach(res.Store.Cl, ods.PMVolumeName), res.Store.LogRegions(), tmf.TCBRegionName, Options{})
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
				checkRerun(t, res, clean, Options{})
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

// chargePhase measures how long a PM + TCB recovery of the streams store
// spends on its charged work at CPUPerRecord c: the MTTR at 2c less the MTTR
// at c. Only the charge depends on c, so once the CPUs bind — the charge
// outlasts the reads it overlaps — that difference is the charge's critical
// path. It returns the records the recovery charged too.
func chargePhase(t *testing.T, streams int, c sim.Time) (sim.Time, int64) {
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
// eight trails overlap four at a time, so their charged work takes no less
// than a quarter of the serial charge, and a store with one trail takes
// exactly the serial charge. At the default 2 µs a record, most of these
// small trails' redo hides behind their reads — what the streamed recovery is
// for — so the test charges 20 µs a record, where the CPUs bind.
func TestRecoverySpeedupCappedByCPUs(t *testing.T) {
	const c = 20 * sim.Microsecond
	phase, records := chargePhase(t, 8, c)
	serial := sim.Time(records) * c
	if phase < serial/4 || phase >= serial {
		t.Errorf("8 trails on 4 CPUs: the charge took %v of a %v serial charge, want at least a quarter and less than all", phase, serial)
	}
	phase, records = chargePhase(t, 1, c)
	if serial := sim.Time(records) * c; phase != serial {
		t.Errorf("1 trail: the charge took %v, the serial charge of %d records is %v", phase, records, serial)
	}
}
