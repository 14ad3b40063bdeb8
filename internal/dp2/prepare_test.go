package dp2

import (
	"fmt"
	"strings"
	"testing"

	"persistmem/internal/adp"
	"persistmem/internal/audit"
	"persistmem/internal/cluster"
	"persistmem/internal/disk"
	"persistmem/internal/npmu"
	"persistmem/internal/pmm"
	"persistmem/internal/sim"
)

// TestPrepareFlushWritesDurablePrepareRecord: a prepare-marked audit
// flush must put this participant's RecPrepare vote on the trail ahead
// of the reported LSN, so the vote is durable exactly when the flush is.
func TestPrepareFlushWritesDurablePrepareRecord(t *testing.T) {
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, cluster.DefaultConfig())
	auditVol := disk.New(eng, "$AUDIT", disk.DefaultConfig(), 64<<20)
	adp.Start(cl, adp.Config{Name: "$ADP0", PrimaryCPU: 0, BackupCPU: 1, Mode: adp.Disk, Volume: auditVol})
	dataVol := disk.New(eng, "$DATA", disk.DefaultConfig(), 64<<20)
	Start(cl, Config{
		Name: "$DP-F-0", File: "F", Partition: 0,
		PrimaryCPU: 1, BackupCPU: 2,
		Volume: dataVol, ADPName: "$ADP0",
		RetainData: true,
	})
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		call(t, p, &InsertReq{Txn: 1, Key: 1, Body: []byte("xs")})
		resp := call(t, p, &FlushAuditReq{Txn: 1, Prepare: true}).Resp
		if resp.Err != nil || resp.LSN == 0 || resp.ADP != "$ADP0" {
			t.Fatalf("prepare flush resp = %+v", resp)
		}
		// Make the stream durable the way the coordinator would.
		if _, err := p.Call("$ADP0", 64, &adp.CommitReq{Txn: 1}); err != nil {
			t.Fatalf("adp commit: %v", err)
		}
	})
	eng.Run()
	read := make([]byte, 64<<10)
	auditVol.Store().ReadAt(0, read)
	s := audit.NewScanner(read)
	var prepares, inserts int
	for s.Next() {
		rec := s.Record()
		switch rec.Type {
		case audit.RecPrepare:
			prepares++
			if rec.Txn != 1 || rec.File != "F" {
				t.Errorf("prepare record = %+v", rec)
			}
		case audit.RecInsert:
			inserts++
		}
	}
	if prepares != 1 || inserts != 1 {
		t.Errorf("trail holds %d prepare and %d insert records, want 1 and 1", prepares, inserts)
	}
	eng.Shutdown()
}

// pmDirectHarness builds a PMDirect-mode DP2 whose log region lives on a
// PMM-managed mirrored NPMU pair.
func pmDirectHarness(t *testing.T, tweak func(*Config)) (*sim.Engine, *cluster.Cluster, *DP2, [2]*npmu.Device) {
	t.Helper()
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, cluster.DefaultConfig())
	a := npmu.New(cl, "npmu-a", 64<<20)
	b := npmu.New(cl, "npmu-b", 64<<20)
	pmm.Start(cl, "$PM1", 0, 1, a, b)
	dataVol := disk.New(eng, "$DATA", disk.DefaultConfig(), 64<<20)
	cfg := Config{
		Name: "$DP-F-0", File: "F", Partition: 0,
		PrimaryCPU: 1, BackupCPU: 2,
		Volume: dataVol, Mode: PMDirect, PMVolume: "$PM1",
		RetainData: true,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	return eng, cl, Start(cl, cfg), [2]*npmu.Device{a, b}
}

// TestPMDirectRegionErrNamesTheFullVolume: the default 16 MiB log region
// does not fit on 16 MiB NPMUs beside the PM manager's metadata, so the
// pair retires, and its Stats say why.
func TestPMDirectRegionErrNamesTheFullVolume(t *testing.T) {
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, cluster.DefaultConfig())
	pmm.Start(cl, "$PM1", 0, 1, npmu.New(cl, "npmu-a", 16<<20), npmu.New(cl, "npmu-b", 16<<20))
	d := Start(cl, Config{
		Name: "$DP-F-0", File: "F", Partition: 0,
		PrimaryCPU: 1, BackupCPU: 2,
		Volume: disk.New(eng, "$DATA", disk.DefaultConfig(), 64<<20),
		Mode:   PMDirect, PMVolume: "$PM1",
	})
	eng.Run()
	err := d.Stats().RegionErr
	if err == nil || !strings.Contains(err.Error(), "volume full") || !strings.Contains(err.Error(), d.RegionName()) {
		t.Errorf("RegionErr = %v, want the volume-full create failure of %s", err, d.RegionName())
	}
	eng.Shutdown()
}

// TestPMDirectPrepareLandsInPMLog: under PMDirect there is no ADP — the
// prepare vote is written synchronously into this DP2's own PM log, and
// the flush reply needs no LSN wait.
func TestPMDirectPrepareLandsInPMLog(t *testing.T) {
	eng, cl, d, _ := pmDirectHarness(t, nil)
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		call(t, p, &InsertReq{Txn: 1, Key: 1, Body: []byte("xs")})
		before := d.Stats().PMLogBytes
		resp := call(t, p, &FlushAuditReq{Txn: 1, Prepare: true}).Resp
		if resp.Err != nil || resp.LSN != 0 {
			t.Fatalf("pmdirect prepare flush resp = %+v", resp)
		}
		if after := d.Stats().PMLogBytes; after <= before {
			t.Errorf("prepare wrote no PM log bytes (%d -> %d)", before, after)
		}
		// A plain (non-prepare) flush has nothing to do.
		plain := call(t, p, &FlushAuditReq{Txn: 1}).Resp
		if plain.Err != nil || plain.LSN != 0 || plain.ADP != "" {
			t.Errorf("pmdirect plain flush resp = %+v", plain)
		}
		call(t, p, &EndTxnReq{Txn: 1, Commit: true})
		if r := call(t, p, &ReadReq{Key: 1}).Resp; r.Err != nil || string(r.Body) != "xs" {
			t.Errorf("read back = %+v", r)
		}
	})
	eng.Run()
	if d.Stats().PMLogWrites == 0 {
		t.Error("no PM log writes recorded")
	}
	eng.Shutdown()
}

// TestPMDirectTakeoverRebuildsFromFullerReplica: while the primary NPMU is
// detached, log writes land on the mirror alone. A takeover must rebuild
// the cache from the replica whose records scan furthest — past the hole
// the outage left in the primary once it is back, and from the mirror alone
// while the primary cannot be read at all.
func TestPMDirectTakeoverRebuildsFromFullerReplica(t *testing.T) {
	for _, tc := range []struct {
		name     string
		reattach bool
	}{
		{"hole in the primary", true},
		{"primary unreadable", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, cl, d, devs := pmDirectHarness(t, nil)
			cl.CPU(3).Spawn("client", func(p *cluster.Process) {
				for txn := audit.TxnID(1); txn <= 6; txn++ {
					switch {
					case txn == 3:
						devs[0].Fail()
					case txn == 5 && tc.reattach:
						devs[0].Recover()
					}
					for k := uint64(0); k < 2; k++ {
						key := uint64(txn)*10 + k
						if r := call(t, p, &InsertReq{Txn: txn, Key: key, Body: []byte(fmt.Sprint(key))}).Resp; r.Err != nil {
							t.Fatalf("insert %d: %v", key, r.Err)
						}
					}
					call(t, p, &EndTxnReq{Txn: txn, Commit: txn != 6})
				}
				d.Pair().KillPrimary()
				p.Wait(cluster.TakeoverDelay + 100*sim.Millisecond)
				for txn := uint64(1); txn <= 6; txn++ {
					for k := uint64(0); k < 2; k++ {
						key := txn*10 + k
						r := call(t, p, &ReadReq{Key: key}).Resp
						switch {
						case txn == 6 && r.Err == nil:
							t.Errorf("aborted row %d came back", key)
						case txn < 6 && (r.Err != nil || string(r.Body) != fmt.Sprint(key)):
							t.Errorf("row %d after takeover = %q, %v", key, r.Body, r.Err)
						}
					}
				}
			})
			eng.Run()
			if got := d.Stats().PMRebuilds; got != 1 {
				t.Errorf("PMRebuilds = %d, want 1", got)
			}
			eng.Shutdown()
		})
	}
}

// TestPMDirectEndRecordWriteFailureIsCounted: with both NPMUs detached, a
// PMDirect end cannot write its End record to the PM log. The end is applied
// and acknowledged all the same, as it always was, but the failure is no
// longer dropped: EndRecordErrors counts it, and the LSN stays where the
// last record that landed put it.
func TestPMDirectEndRecordWriteFailureIsCounted(t *testing.T) {
	eng, cl, d, devs := pmDirectHarness(t, nil)
	var before Stats
	cl.CPU(3).Spawn("client", func(p *cluster.Process) {
		if err := call(t, p, &InsertReq{Txn: 1, Key: 1, Body: []byte("row")}).Resp.Err; err != nil {
			t.Fatalf("insert: %v", err)
		}
		before = d.Stats()
		devs[0].Fail()
		devs[1].Fail()
		call(t, p, &EndTxnReq{Txn: 1, Commit: true})
	})
	eng.Run()
	after := d.Stats()
	if before.EndRecordErrors != 0 || after.EndRecordErrors != 1 {
		t.Errorf("EndRecordErrors %d before the detach, %d after the end; want 0 and 1", before.EndRecordErrors, after.EndRecordErrors)
	}
	if after.PMLogWrites != before.PMLogWrites || after.PMLogBytes != before.PMLogBytes {
		t.Errorf("PM log writes %d → %d, bytes %d → %d: the failed End record was counted as written",
			before.PMLogWrites, after.PMLogWrites, before.PMLogBytes, after.PMLogBytes)
	}
	eng.Shutdown()
}
