package adp

import (
	"fmt"
	"strings"
	"testing"

	"persistmem/internal/audit"
	"persistmem/internal/cluster"
	"persistmem/internal/disk"
	"persistmem/internal/npmu"
	"persistmem/internal/pmm"
	"persistmem/internal/sim"
)

// diskHarness builds a cluster with one disk-mode ADP over a retaining
// audit volume.
func diskHarness(t *testing.T, tweak func(*Config)) (*sim.Engine, *cluster.Cluster, *ADP, *disk.Volume) {
	t.Helper()
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, cluster.DefaultConfig())
	vol := disk.New(eng, "$AUDIT", disk.DefaultConfig(), 64<<20)
	cfg := Config{Name: "$ADP0", PrimaryCPU: 0, BackupCPU: 1, Mode: Disk, Volume: vol}
	if tweak != nil {
		tweak(&cfg)
	}
	return eng, cl, Start(cl, cfg), vol
}

// pmHarness builds a cluster with a PMM-managed mirrored pair and one
// PM-mode ADP.
func pmHarness(t *testing.T, regionSize int64) (*sim.Engine, *cluster.Cluster, *ADP, *npmu.Device) {
	t.Helper()
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, cluster.DefaultConfig())
	a := npmu.New(cl, "npmu-a", 64<<20)
	b := npmu.New(cl, "npmu-b", 64<<20)
	pmm.Start(cl, "$PM1", 0, 1, a, b)
	adp := Start(cl, Config{
		Name: "$ADP0", PrimaryCPU: 2, BackupCPU: 3, Mode: PM,
		PMVolume: "$PM1", RegionSize: regionSize,
	})
	return eng, cl, adp, a
}

// TestPMRegionErrNamesTheFullVolume: a log region as large as its NPMUs
// does not fit beside the PM manager's metadata, so the pair retires, and
// its Stats say why.
func TestPMRegionErrNamesTheFullVolume(t *testing.T) {
	eng, _, a, _ := pmHarness(t, 64<<20)
	eng.Run()
	err := a.Stats().RegionErr
	if err == nil || !strings.Contains(err.Error(), "volume full") || !strings.Contains(err.Error(), a.RegionName()) {
		t.Errorf("RegionErr = %v, want the volume-full create failure of %s", err, a.RegionName())
	}
	eng.Shutdown()
}

// appendRecords encodes n insert records of bodyLen bytes as one frame
// buffer.
func appendRecords(txn audit.TxnID, n, bodyLen int) []byte {
	var buf []byte
	for i := 0; i < n; i++ {
		buf = audit.AppendRecord(buf, &audit.Record{
			Type: audit.RecInsert, Txn: txn, File: "F",
			Key: uint64(i), Body: make([]byte, bodyLen),
		})
	}
	return buf
}

func TestDiskAppendThenCommitFlushes(t *testing.T) {
	eng, cl, _, vol := diskHarness(t, nil)
	data := appendRecords(1, 4, 1024)
	cl.CPU(2).Spawn("client", func(p *cluster.Process) {
		resp := call(t, p, len(data), &AppendReq{Data: data}).Resp
		if resp.Err != nil || resp.End != audit.LSN(len(data)) {
			t.Fatalf("append resp = %+v", resp)
		}
		// Not yet durable: no flush has run.
		if st := stateOf(t, p); st.DurableLSN != 0 {
			t.Errorf("durable before commit: %v", st.DurableLSN)
		}
		if cresp := call(t, p, 64, &CommitReq{Txn: 1}).Resp; cresp.Err != nil {
			t.Fatalf("commit resp err: %v", cresp.Err)
		}
		st := stateOf(t, p)
		if st.DurableLSN < resp.End {
			t.Errorf("durable %v < appended %v after commit", st.DurableLSN, resp.End)
		}
		if st.Flushes == 0 {
			t.Error("no physical flush recorded")
		}
	})
	eng.Run()
	// The records physically reached the audit volume.
	read := make([]byte, len(data))
	vol.Store().ReadAt(0, read)
	s := audit.NewScanner(read)
	count := 0
	for s.Next() {
		count++
	}
	if count != 4 {
		t.Errorf("audit volume holds %d records, want 4", count)
	}
	eng.Shutdown()
}

// call sends the request box req to the ADP and hands it back once the reply
// — the box itself, carrying the response — has arrived.
func call[R any](t *testing.T, p *cluster.Process, sz int, req *R) *R {
	t.Helper()
	raw, err := p.Call("$ADP0", sz, req)
	if err != nil {
		t.Fatalf("call %T: %v", req, err)
	}
	if raw != interface{}(req) {
		t.Fatalf("call %T: the reply is %T %v, want the request box itself", req, raw, raw)
	}
	return req
}

func stateOf(t *testing.T, p *cluster.Process) Stats {
	t.Helper()
	return call(t, p, 32, &StateReq{}).Resp
}

func TestDiskGroupCommit(t *testing.T) {
	eng, cl, a, _ := diskHarness(t, nil)
	_ = a
	done := 0
	// Three committers fire at once; the flush batches them.
	for i := 0; i < 3; i++ {
		txn := audit.TxnID(i + 1)
		cl.CPU(2).Spawn("committer", func(p *cluster.Process) {
			p.Call("$ADP0", 1024, &AppendReq{Data: appendRecords(txn, 1, 512)})
			creq := &CommitReq{Txn: txn}
			if _, err := p.Call("$ADP0", 64, creq); err != nil || creq.Resp.Err != nil {
				t.Errorf("commit %d failed", txn)
				return
			}
			done++
		})
	}
	eng.Run()
	if done != 3 {
		t.Fatalf("%d/3 commits", done)
	}
	var st Stats
	cl.CPU(2).Spawn("probe", func(p *cluster.Process) { st = stateOf(t, p) })
	eng.Run()
	if st.Flushes >= 3 {
		t.Errorf("flushes = %d; group commit should share flushes across 3 commits", st.Flushes)
	}
	if st.GroupedCommits == 0 {
		t.Error("GroupedCommits = 0")
	}
	eng.Shutdown()
}

func TestNoGroupCommitFlushesPerCommit(t *testing.T) {
	eng, cl, _, _ := diskHarness(t, func(c *Config) { c.NoGroupCommit = true })
	for i := 0; i < 3; i++ {
		txn := audit.TxnID(i + 1)
		cl.CPU(2).Spawn("committer", func(p *cluster.Process) {
			p.Call("$ADP0", 512, &AppendReq{Data: appendRecords(txn, 1, 256)})
			p.Call("$ADP0", 64, &CommitReq{Txn: txn})
		})
	}
	eng.Run()
	var st Stats
	cl.CPU(2).Spawn("probe", func(p *cluster.Process) { st = stateOf(t, p) })
	eng.Run()
	if st.Flushes != 3 {
		t.Errorf("flushes = %d, want 3 (one per commit)", st.Flushes)
	}
	eng.Shutdown()
}

func TestPMAppendDurableImmediately(t *testing.T) {
	eng, cl, a, dev := pmHarness(t, 1<<20)
	data := appendRecords(1, 2, 2048)
	cl.CPU(1).Spawn("client", func(p *cluster.Process) {
		if err := call(t, p, len(data), &AppendReq{Data: data}).Resp.Err; err != nil {
			t.Fatalf("append err: %v", err)
		}
		st := stateOf(t, p)
		if st.DurableLSN != audit.LSN(len(data)) {
			t.Errorf("PM append not durable immediately: %v", st.DurableLSN)
		}
		if st.PMWrites == 0 {
			t.Error("no PM writes recorded")
		}
		// Commit is a fast no-flush acknowledgment.
		start := p.Now()
		p.Call("$ADP0", 64, &CommitReq{Txn: 1})
		if took := p.Now() - start; took > sim.Millisecond {
			t.Errorf("PM commit took %v, want sub-millisecond", took)
		}
	})
	eng.Run()
	if a.Stats().Flushes != 0 {
		t.Errorf("PM mode performed %d disk flushes", a.Stats().Flushes)
	}
	// Bytes really landed in NPMU memory (region offset within device).
	if dev.Store().BytesWritten == 0 {
		t.Error("nothing written to NPMU")
	}
	eng.Shutdown()
}

func TestPMLogWrapsRing(t *testing.T) {
	// Region of 8 KB; append 3 x 4 KB: the third write wraps.
	eng, cl, _, _ := pmHarness(t, 8<<10)
	cl.CPU(1).Spawn("client", func(p *cluster.Process) {
		for i := 0; i < 3; i++ {
			data := appendRecords(audit.TxnID(i), 1, 4000)
			if err := call(t, p, len(data), &AppendReq{Data: data}).Resp.Err; err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		st := stateOf(t, p)
		if st.DurableLSN <= audit.LSN(8<<10) {
			t.Errorf("log did not pass the ring size: %v", st.DurableLSN)
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestDiskTakeoverKeepsUnflushedAudit(t *testing.T) {
	eng, cl, a, vol := diskHarness(t, nil)
	data := appendRecords(7, 3, 1024)
	cl.CPU(2).Spawn("client", func(p *cluster.Process) {
		if err := call(t, p, len(data), &AppendReq{Data: data}).Resp.Err; err != nil {
			t.Fatalf("append: %v", err)
		}
		// Software fault kills the primary; the checkpointed buffer moves
		// to the backup.
		a.Pair().KillPrimary()
		deadline := p.Now() + 5*sim.Second
		for {
			creq := &CommitReq{Txn: 7}
			if _, err := p.Call("$ADP0", 64, creq); err == nil && creq.Resp.Err == nil {
				break
			}
			if p.Now() > deadline {
				t.Fatal("commit never succeeded after takeover")
			}
			p.Wait(100 * sim.Millisecond)
		}
	})
	eng.Run()
	// The pre-failure records must be durable on the volume.
	read := make([]byte, len(data)+256)
	vol.Store().ReadAt(0, read)
	s := audit.NewScanner(read)
	inserts := 0
	for s.Next() {
		if s.Record().Type == audit.RecInsert && s.Record().Txn == 7 {
			inserts++
		}
	}
	if inserts != 3 {
		t.Errorf("found %d pre-failure records after takeover, want 3", inserts)
	}
	if a.Pair().Takeovers != 1 {
		t.Errorf("takeovers = %d", a.Pair().Takeovers)
	}
	eng.Shutdown()
}

func TestAbortIsLazy(t *testing.T) {
	eng, cl, _, _ := diskHarness(t, nil)
	cl.CPU(2).Spawn("client", func(p *cluster.Process) {
		p.Call("$ADP0", 256, &AppendReq{Data: appendRecords(9, 1, 64)})
		start := p.Now()
		call(t, p, 64, &AbortReq{Txn: 9})
		if took := p.Now() - start; took > sim.Millisecond {
			t.Errorf("abort took %v; should not wait for a flush", took)
		}
		st := stateOf(t, p)
		if st.Aborts != 1 {
			t.Errorf("aborts = %d", st.Aborts)
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestFlushReqHonorsLSN(t *testing.T) {
	eng, cl, _, _ := diskHarness(t, nil)
	data := appendRecords(3, 2, 512)
	cl.CPU(2).Spawn("client", func(p *cluster.Process) {
		end := call(t, p, len(data), &AppendReq{Data: data}).Resp.End
		resp := call(t, p, 64, &FlushReq{UpTo: end}).Resp
		if resp.Err != nil || resp.Durable < end {
			t.Errorf("flush resp = %+v, want durable >= %v", resp, end)
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, cluster.DefaultConfig())
	mustPanic := func(name string, cfg Config) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		Start(cl, cfg)
	}
	mustPanic("disk without volume", Config{Name: "$A", PrimaryCPU: 0, BackupCPU: 1, Mode: Disk})
	mustPanic("pm without volume name", Config{Name: "$B", PrimaryCPU: 0, BackupCPU: 1, Mode: PM})
}

func TestModeString(t *testing.T) {
	if Disk.String() != "disk" || PM.String() != "pm" {
		t.Errorf("mode strings: %q %q", Disk.String(), PM.String())
	}
}

// A payload the server does not know is a programming error, and loud: once
// senders read their own box and ignore Call's value, a request sent by value
// that was answered with some error struct would look like success.
func TestUnknownRequestPanics(t *testing.T) {
	eng, cl, _, _ := diskHarness(t, nil)
	cl.CPU(2).Spawn("client", func(p *cluster.Process) {
		p.Send("$ADP0", 64, AppendReq{Data: []byte("x")}) // not a box
	})
	defer eng.Shutdown()
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "adp: unknown request adp.AppendReq") {
			t.Errorf("a by-value request: Run panicked with %q, want the server to name the type it cannot serve", msg)
		}
	}()
	eng.Run()
}
